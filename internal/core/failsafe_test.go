package core

import (
	"errors"
	"math"
	"testing"

	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// runSteps advances n CFL steps and returns a copy of the conserved field.
func runSteps(t *testing.T, s *Solver, n int) []float64 {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Step(s.MaxDt()); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	out := make([]float64, len(s.G.U.Raw()))
	copy(out, s.G.U.Raw())
	return out
}

// TestFailSafeZeroTroubledBitwise pins the fail-safe contract on clean
// runs: with zero troubled cells the pipeline must be bitwise identical
// to the plain pipeline (with the inert Config.Fused flag set or not) —
// the detector only reads, and the
// dt sequence is unchanged because the in-pass CFL fold rides the same
// detection recovery.
func TestFailSafeZeroTroubledBitwise(t *testing.T) {
	muts := map[string]func(*Config){
		"generic": nil,
		"fused":   func(c *Config) { c.Fused = true },
	}
	for name, mut := range muts {
		t.Run(name, func(t *testing.T) {
			plain := newSteppedSolver(t, testprob.Blast2D, 48, 0, mut)
			fs := newSteppedSolver(t, testprob.Blast2D, 48, 0, func(c *Config) {
				if mut != nil {
					mut(c)
				}
				c.FailSafe = true
			})
			a := runSteps(t, plain, 8)
			b := runSteps(t, fs, 8)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("value %d differs: %v (plain) vs %v (fail-safe)", i, a[i], b[i])
				}
			}
			if tr := fs.St.Troubled.Load(); tr != 0 {
				t.Fatalf("clean blast run flagged %d troubled cells", tr)
			}
			if fs.St.Repaired.Load() != 0 {
				t.Fatal("clean run reported repairs")
			}
		})
	}
}

// TestFaultFailSafeLocalRepairConservation injects stage-local faults on
// a doubly periodic problem and verifies the flux-replacement repair: the
// run completes at full order, the injected cells are repaired, and total
// D, S and tau stay conserved to round-off across the repaired steps —
// both sides of every patched face see the same corrected flux.
func TestFaultFailSafeLocalRepairConservation(t *testing.T) {
	cases := []struct {
		name   string
		poison func(u *state.Fields, idx int)
	}{
		// A non-finite candidate: phase-A detection, wholesale rebuild.
		{"nan", func(u *state.Fields, idx int) {
			u.Comp[state.ITau][idx] = math.NaN()
		}},
		// A finite but wildly inadmissible energy spike: survives the
		// conserved scan and the inversion, caught by the relaxed DMP.
		{"spike", func(u *state.Fields, idx int) {
			u.Comp[state.ITau][idx] *= 1e6
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testprob.KelvinHelmholtz2D
			cfg := DefaultConfig()
			cfg.FailSafe = true
			g := p.NewGrid(32, cfg.Recon.Ghost())
			s, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.InitFromPrim(p.Init); err != nil {
				t.Fatal(err)
			}
			s.RecoverPrimitives()

			// Poison one interior cell on the first stage of steps 3 and 4.
			step := 0
			idx := g.Idx(g.TotalX/2, g.TotalY/2, 0)
			s.Cfg.FaultHook = func(stage int, u *state.Fields) {
				if stage == 1 && (step == 3 || step == 4) {
					tc.poison(u, idx)
				}
			}

			mass0, energy0 := g.TotalMass(), g.TotalEnergy()
			sx0, sy0, _ := g.TotalMomentum()
			for ; step < 8; step++ {
				if err := s.Step(s.MaxDt()); err != nil {
					t.Fatalf("step %d not repaired: %v", step, err)
				}
			}
			if tr := s.St.Troubled.Load(); tr == 0 {
				t.Fatal("injector never triggered the detector")
			}
			if s.St.Repaired.Load() != s.St.Troubled.Load() {
				t.Fatalf("repaired %d of %d troubled cells",
					s.St.Repaired.Load(), s.St.Troubled.Load())
			}
			relTol := 1e-12
			if d := math.Abs(g.TotalMass()-mass0) / mass0; d > relTol {
				t.Errorf("mass drift %.3e across repaired steps", d)
			}
			if d := math.Abs(g.TotalEnergy()-energy0) / energy0; d > relTol {
				t.Errorf("energy drift %.3e across repaired steps", d)
			}
			sx1, sy1, _ := g.TotalMomentum()
			// Net momentum is ~0 by symmetry; compare against the mass scale.
			if d := math.Abs(sx1-sx0) / mass0; d > relTol {
				t.Errorf("x-momentum drift %.3e across repaired steps", d)
			}
			if d := math.Abs(sy1-sy0) / mass0; d > relTol {
				t.Errorf("y-momentum drift %.3e across repaired steps", d)
			}
			// The repaired state must be admissible everywhere.
			if err := s.CheckState(); err != nil {
				t.Fatalf("post-repair state invalid: %v", err)
			}
		})
	}
}

// TestFaultFailSafeMaxFracDemotes: a troubled fraction above the policy
// threshold must abort the step with a demotion StateError instead of
// attempting a sprawling local repair.
func TestFaultFailSafeMaxFracDemotes(t *testing.T) {
	p := testprob.KelvinHelmholtz2D
	cfg := DefaultConfig()
	cfg.FailSafe = true
	cfg.FailSafeMaxFrac = 1.0 / (32.0 * 32.0) // one cell is already too many
	g := p.NewGrid(32, cfg.Recon.Ghost())
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitFromPrim(p.Init); err != nil {
		t.Fatal(err)
	}
	s.RecoverPrimitives()
	idxA := g.Idx(g.TotalX/2, g.TotalY/2, 0)
	idxB := g.Idx(g.TotalX/3, g.TotalY/3, 0)
	s.Cfg.FaultHook = func(stage int, u *state.Fields) {
		if stage == 1 {
			u.Comp[state.ITau][idxA] = math.NaN()
			u.Comp[state.ITau][idxB] = -1
		}
	}
	err = s.Step(s.MaxDt())
	var se *StateError
	if !errors.As(err, &se) {
		t.Fatalf("step error = %v, want *StateError", err)
	}
	if se.Troubled < 2 || se.RepairFailed {
		t.Fatalf("demotion error = %+v, want Troubled >= 2 via the policy fraction", se)
	}
	if s.St.Repaired.Load() != 0 {
		t.Fatal("demoted step must not repair")
	}
}

// TestStrictC2PFirstConsPreserved is the regression test for the silent
// atmosphere rewrite: when strict checks reject a step on c2p resets, the
// StateError must carry the pre-reset conserved state of the first
// offending cell (the reset already rewrote the grid, so the error is the
// only trace of what actually failed).
func TestStrictC2PFirstConsPreserved(t *testing.T) {
	p := testprob.Blast2D
	cfg := DefaultConfig()
	cfg.StrictChecks = true
	g := p.NewGrid(48, cfg.Recon.Ghost())
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitFromPrim(p.Init); err != nil {
		t.Fatal(err)
	}
	s.RecoverPrimitives()

	// Finite, D and tau positive — passes the conserved-state scan — but
	// |S| >> E leaves the inversion no admissible pressure.
	hopeless := state.Cons{D: 1, Sx: 100, Sy: 0, Sz: 0, Tau: 0.1}
	i, j := g.TotalX/2, g.TotalY/2
	idx := g.Idx(i, j, 0)
	s.Cfg.FaultHook = func(stage int, u *state.Fields) {
		if stage == 1 {
			u.SetCons(idx, hopeless)
		}
	}
	err = s.Step(s.MaxDt())
	var se *StateError
	if !errors.As(err, &se) {
		t.Fatalf("step error = %v, want *StateError", err)
	}
	if se.C2PResets != 1 {
		t.Fatalf("C2PResets = %d, want 1", se.C2PResets)
	}
	if se.First != [3]int{i, j, 0} {
		t.Fatalf("First = %v, want [%d %d 0]", se.First, i, j)
	}
	if se.FirstCons != hopeless {
		t.Fatalf("FirstCons = %+v, want the pre-reset state %+v", se.FirstCons, hopeless)
	}
	// And the grid really was rewritten — the error preserved state that
	// is gone from the field.
	if got := g.U.GetCons(idx); got == hopeless {
		t.Fatal("cell not reset — test premise broken")
	}
}
