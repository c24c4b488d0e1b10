package core

import (
	"errors"
	"math"
	"testing"

	"rhsc/internal/eos"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

func checkSolver(t *testing.T) *Solver {
	t.Helper()
	g := grid1D(32, 2)
	s, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitFromPrim(sodInit); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCheckStateClean(t *testing.T) {
	s := checkSolver(t)
	if err := s.CheckState(); err != nil {
		t.Fatalf("admissible state flagged: %v", err)
	}
}

func TestCheckStateDetectsViolations(t *testing.T) {
	cases := []struct {
		name   string
		poison func(s *Solver, idx int)
		field  func(e *StateError) int
	}{
		{"nan", func(s *Solver, idx int) { s.G.U.Comp[state.ITau][idx] = math.NaN() },
			func(e *StateError) int { return e.NonFinite }},
		{"inf", func(s *Solver, idx int) { s.G.U.Comp[state.ISx][idx] = math.Inf(1) },
			func(e *StateError) int { return e.NonFinite }},
		{"negD", func(s *Solver, idx int) { s.G.U.Comp[state.ID][idx] = -1 },
			func(e *StateError) int { return e.NegDens }},
		{"negTau", func(s *Solver, idx int) { s.G.U.Comp[state.ITau][idx] = 0 },
			func(e *StateError) int { return e.NegEnergy }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := checkSolver(t)
			g := s.G
			i := g.IBeg() + 7
			tc.poison(s, g.Idx(i, g.JBeg(), g.KBeg()))
			err := s.CheckState()
			var se *StateError
			if !errors.As(err, &se) {
				t.Fatalf("expected *StateError, got %v", err)
			}
			if tc.field(se) != 1 {
				t.Fatalf("wrong violation count in %v", se)
			}
			if se.First[0] != i {
				t.Fatalf("first cell %v, want i=%d", se.First, i)
			}
		})
	}
}

func TestCheckStateIgnoresGhosts(t *testing.T) {
	// Ghost-zone garbage must not trip the interior scan.
	s := checkSolver(t)
	s.G.U.Comp[state.ID][0] = math.NaN()
	if err := s.CheckState(); err != nil {
		t.Fatalf("ghost cell flagged: %v", err)
	}
}

// TestFaultStrictChecksAbortStage pins the per-stage validation path: a
// fault hook armed from a chosen step on writes a finite conserved state
// with positive D and τ that no primitive state maps to (superluminal,
// S² > (τ+D)²) into one cell after the first RK stage. Every whole-state
// scan passes such a cell; the stage's primitive recovery cannot invert
// it and resets it to atmosphere (rewriting the conserved state), so the
// violation must surface through the stage's c2p reset count, before the
// step completes, with the state the inversion rejected.
func TestFaultStrictChecksAbortStage(t *testing.T) {
	g := grid1D(32, 2)
	cfg := DefaultConfig()
	cfg.StrictChecks = true
	armed := false
	bad := state.Cons{D: 1, Sx: 5, Tau: 1}
	i := g.IBeg() + 7
	cfg.FaultHook = func(stage int, u *state.Fields) {
		if armed && stage == 1 {
			u.SetCons(g.Idx(i, 0, 0), bad)
		}
	}
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitFromPrim(sodInit); err != nil {
		t.Fatal(err)
	}
	s.RecoverPrimitives()
	if err := s.Step(s.MaxDt()); err != nil {
		t.Fatalf("clean strict step failed: %v", err)
	}
	armed = true
	err = s.Step(s.MaxDt())
	var se *StateError
	if !errors.As(err, &se) {
		t.Fatalf("expected *StateError, got %v", err)
	}
	if se.Stage != 1 {
		t.Fatalf("violation reported at stage %d, want 1", se.Stage)
	}
	if se.C2PResets != 1 {
		t.Fatalf("expected one c2p reset in %v", se)
	}
	if se.NonFinite != 0 || se.NegDens != 0 || se.NegEnergy != 0 {
		t.Fatalf("the scans fired instead of the reset count: %v", se)
	}
	if se.First != [3]int{i, 0, 0} || se.FirstCons != bad {
		t.Fatalf("first violation %v %+v, want %v %+v", se.First, se.FirstCons, [3]int{i, 0, 0}, bad)
	}
	if errors.Is(err, ErrNonFinite) {
		t.Fatalf("a finite violation matched ErrNonFinite: %v", err)
	}
}

func TestStateErrorMatchesErrNonFinite(t *testing.T) {
	s := checkSolver(t)
	s.G.U.Comp[state.ITau][s.G.Idx(s.G.IBeg(), s.G.JBeg(), s.G.KBeg())] = math.NaN()
	err := s.CheckState()
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("StateError with NaNs must match ErrNonFinite, got %v", err)
	}
}

func TestSetMethodSwapsScheme(t *testing.T) {
	s := checkSolver(t)
	s.RecoverPrimitives()
	hiRec, hiRs := s.Method()
	if err := s.SetMethod(recon.PCM{}, riemann.HLL{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(s.MaxDt()); err != nil {
		t.Fatalf("first-order step failed: %v", err)
	}
	if err := s.SetMethod(hiRec, hiRs); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(s.MaxDt()); err != nil {
		t.Fatalf("restored high-order step failed: %v", err)
	}
	if err := s.SetMethod(recon.WENO5{}, riemann.HLL{}); err == nil {
		t.Fatal("scheme wider than the ghost region accepted")
	}
	if err := s.SetMethod(nil, nil); err == nil {
		t.Fatal("nil scheme accepted")
	}
}

// The resilience retry path: a step is retried with PCM+HLL from a restored
// snapshot and the high-order method is switched back afterwards. Every
// SetMethod re-resolves the solver kind, the EOS branch and the fail-safe's
// repair scheme together, so a run that detours through the fallback and
// discards the detour must reproduce the uninterrupted run bit for bit —
// here with the fail-safe repairing an injected fault on a non-Γ-law gas,
// before and after the detour.
func TestSetMethodRoundTripBitwise(t *testing.T) {
	run := func(detour bool) ([]float64, int64) {
		g := testprob.Blast2D.NewGrid(32, 2)
		cfg := DefaultConfig()
		cfg.EOS = eos.TaubMathews{}
		cfg.FailSafe = true
		step := 0
		idx := g.Idx(g.TotalX/2+2, g.TotalY/2-1, 0)
		cfg.FaultHook = func(stage int, u *state.Fields) {
			if stage == 1 && (step == 1 || step == 4) {
				u.Comp[state.ITau][idx] = -1
			}
		}
		s, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InitFromPrim(testprob.Blast2D.Init); err != nil {
			t.Fatal(err)
		}
		for ; step < 6; step++ {
			if detour && step == 3 {
				u0, w0, t0 := g.U.Clone(), g.W.Clone(), s.Time()
				hiRec, hiRS := s.Method()
				if err := s.SetMethod(recon.PCM{}, riemann.HLL{}); err != nil {
					t.Fatal(err)
				}
				if err := s.Step(s.MaxDt()); err != nil {
					t.Fatal(err)
				}
				if err := s.SetMethod(hiRec, hiRS); err != nil {
					t.Fatal(err)
				}
				g.U.CopyFrom(u0)
				g.W.CopyFrom(w0)
				s.SetTime(t0)
				s.InvalidateCFL()
			}
			if err := s.Step(s.MaxDt()); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		return append([]float64(nil), g.U.Raw()...), s.St.Repaired.Load()
	}
	want, repaired := run(false)
	if repaired == 0 {
		t.Fatal("injected faults were not repaired")
	}
	got, _ := run(true)
	requireBitwiseEqual(t, "detour through PCM+HLL", want, got)
}

func TestInitFromPrimRejectsUnphysical(t *testing.T) {
	g := grid1D(16, 2)
	s, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	err = s.InitFromPrim(func(x, _, _ float64) state.Prim {
		if x > 0.5 {
			return state.Prim{Rho: -1, P: 1}
		}
		return state.Prim{Rho: 1, P: 1}
	})
	if err == nil {
		t.Fatal("unphysical initial state accepted")
	}
}
