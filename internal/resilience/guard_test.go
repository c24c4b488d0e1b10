package resilience

import (
	"errors"
	"testing"

	"rhsc/internal/core"
	"rhsc/internal/testprob"
)

func sodSolver(t *testing.T) *core.Solver {
	t.Helper()
	cfg := core.DefaultConfig()
	p := testprob.Sod
	g := p.NewGrid(128, cfg.Recon.Ghost())
	s, err := core.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitFromPrim(p.Init); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFaultGuardCleanRunBitIdentical: with no fault, the guard must not
// perturb the solution — same dt choices, bitwise-identical final state
// as the plain solver.
func TestFaultGuardCleanRunBitIdentical(t *testing.T) {
	plain := sodSolver(t)
	if _, err := plain.Advance(testprob.Sod.TEnd); err != nil {
		t.Fatal(err)
	}

	guarded := sodSolver(t)
	g := NewGuard(guarded)
	if _, err := g.Advance(testprob.Sod.TEnd); err != nil {
		t.Fatal(err)
	}
	if snap := g.Stats.Snapshot(); snap.Retries != 0 || snap.Fallbacks != 0 {
		t.Fatalf("clean run consumed retries: %+v", snap)
	}

	a, b := plain.G.U.Raw(), guarded.G.U.Raw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("word %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestFaultInjectedNaNRecovered is the tentpole acceptance case: an
// injected NaN triggers the dt-halving retry and the run completes.
func TestFaultInjectedNaNRecovered(t *testing.T) {
	s := sodSolver(t)
	g := NewGuard(s)
	g.Inject = &Injector{AtStep: 3, Cell: -1}
	if _, err := g.Advance(testprob.Sod.TEnd); err != nil {
		t.Fatalf("run did not complete: %v", err)
	}
	snap := g.Stats.Snapshot()
	if snap.Injected != 1 {
		t.Fatalf("Injected = %d, want 1", snap.Injected)
	}
	if snap.Retries < 1 {
		t.Fatalf("Retries = %d, want >= 1", snap.Retries)
	}
	if err := s.CheckState(); err != nil {
		t.Fatalf("final state invalid: %v", err)
	}
	if s.Time() < testprob.Sod.TEnd-1e-12 {
		t.Fatalf("stopped at t=%v", s.Time())
	}
}

// TestFaultPersistentFaultEngagesFallback: a fault that survives the
// first (dt-halving) retry must engage the first-order PCM+HLL fallback,
// after which the run completes and the high-order method is restored.
func TestFaultPersistentFaultEngagesFallback(t *testing.T) {
	s := sodSolver(t)
	hiRec, hiRS := s.Method()
	g := NewGuard(s)
	g.Inject = &Injector{AtStep: 2, Count: 2, Cell: -1}
	if _, err := g.Advance(testprob.Sod.TEnd); err != nil {
		t.Fatalf("run did not complete: %v", err)
	}
	snap := g.Stats.Snapshot()
	if snap.Fallbacks < 1 {
		t.Fatalf("Fallbacks = %d, want >= 1", snap.Fallbacks)
	}
	if snap.Retries < 2 {
		t.Fatalf("Retries = %d, want >= 2", snap.Retries)
	}
	rec, rs := s.Method()
	if rec != hiRec || rs != hiRS {
		t.Fatalf("high-order method not restored: %v %v", rec.Name(), rs)
	}
}

// TestFaultUnphysicalInjection exercises the positivity branch: a finite
// tau < 0 cell must be caught and repaired exactly like a NaN.
func TestFaultUnphysicalInjection(t *testing.T) {
	s := sodSolver(t)
	g := NewGuard(s)
	g.Inject = &Injector{AtStep: 1, Cell: -1, Unphysical: true}
	if _, err := g.Advance(testprob.Sod.TEnd); err != nil {
		t.Fatalf("run did not complete: %v", err)
	}
	if snap := g.Stats.Snapshot(); snap.Injected != 1 || snap.Retries < 1 {
		t.Fatalf("unexpected counters: %+v", snap)
	}
}

// TestFaultRetryBudgetExhausted: a fault outlasting the budget surfaces
// a typed *StepFailure and leaves the state on the pre-step snapshot.
func TestFaultRetryBudgetExhausted(t *testing.T) {
	s := sodSolver(t)
	g := NewGuard(s)
	g.Inject = &Injector{AtStep: 2, Count: 100, Cell: -1}

	s.RecoverPrimitives()
	var before []float64
	var tBefore float64
	steps := 0
	for {
		dt := s.MaxDt()
		if steps == g.Inject.AtStep {
			before = append([]float64(nil), s.G.U.Raw()...)
			tBefore = s.Time()
		}
		_, err := g.Step(dt)
		if err != nil {
			var sf *StepFailure
			if !errors.As(err, &sf) {
				t.Fatalf("expected *StepFailure, got %v", err)
			}
			if sf.Retries != maxRetries {
				t.Fatalf("Retries = %d, want %d", sf.Retries, maxRetries)
			}
			if sf.Last == nil {
				t.Fatal("StepFailure carries no cause")
			}
			break
		}
		steps++
		if steps > g.Inject.AtStep {
			t.Fatal("poisoned step committed")
		}
	}

	if s.Time() != tBefore {
		t.Fatalf("time not restored: %v vs %v", s.Time(), tBefore)
	}
	raw := s.G.U.Raw()
	for i := range before {
		if raw[i] != before[i] {
			t.Fatalf("state word %d not restored", i)
		}
	}
	// The guard must remain usable after a failure; clear the injector
	// (Count=100 would keep refiring at this step) and step again.
	g.Inject = nil
	if _, err := g.Step(s.MaxDt()); err != nil {
		t.Fatalf("guard unusable after failure: %v", err)
	}
}
