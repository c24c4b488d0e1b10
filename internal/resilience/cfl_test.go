package resilience

import (
	"errors"
	"testing"

	"rhsc/internal/testprob"
)

// TestFaultRetryInvalidatesCFLCache: a failed attempt's final recovery
// caches an in-sweep CFL reduction for the state it produced; the
// guard's snapshot restore must invalidate it. With the retry budget
// exhausted the solver holds the pre-step snapshot, and MaxDt must
// match a from-scratch traversal of exactly that state — not the stale
// reduction of the last corrupted attempt.
func TestFaultRetryInvalidatesCFLCache(t *testing.T) {
	s := sodSolver(t)
	g := NewGuard(s)
	g.Inject = &Injector{AtStep: 2, Cell: -1, Count: 10} // outlasts the budget of maxRetries+1 attempts
	s.RecoverPrimitives()

	var ferr error
	for i := 0; i < 10; i++ {
		if _, ferr = g.Step(s.MaxDt()); ferr != nil {
			break
		}
	}
	var sf *StepFailure
	if !errors.As(ferr, &sf) {
		t.Fatalf("want *StepFailure, got %v", ferr)
	}

	cached := s.MaxDt()
	s.InvalidateCFL()
	if fresh := s.MaxDt(); fresh != cached {
		t.Fatalf("post-failure MaxDt %v, traversal of restored state gives %v", cached, fresh)
	}
}

// TestFaultRecoveredRunCFLCoherent: across a transient injection — the
// dt-halving retry plus the first-order fallback engaging and
// disengaging (which re-resolves the solver's method) — every
// committed step must leave the CFL cache coherent with the state.
func TestFaultRecoveredRunCFLCoherent(t *testing.T) {
	s := sodSolver(t)
	g := NewGuard(s)
	g.Inject = &Injector{AtStep: 3, Cell: -1, Count: 2} // forces the fallback
	s.RecoverPrimitives()

	for i := 0; i < 8; i++ {
		if _, err := g.Step(s.MaxDt()); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		cached := s.MaxDt()
		s.InvalidateCFL()
		if fresh := s.MaxDt(); fresh != cached {
			t.Fatalf("step %d: cached MaxDt %v != traversal %v", i, cached, fresh)
		}
	}
	if snap := g.Stats.Snapshot(); snap.Retries == 0 || snap.Fallbacks == 0 {
		t.Fatalf("injection did not exercise the retry/fallback path: %+v", snap)
	}
}

// TestFaultSnapshotBuffersReused: the guard's pre-step snapshot buffers
// are pooled — established once, then reused across every step and
// retry rather than reallocated (the zero-allocation step pipeline
// would otherwise leak a full state copy per step).
func TestFaultSnapshotBuffersReused(t *testing.T) {
	s := sodSolver(t)
	g := NewGuard(s)
	g.Inject = &Injector{AtStep: 2, Cell: -1, Count: 2}
	s.RecoverPrimitives()

	if _, err := g.Step(s.MaxDt()); err != nil {
		t.Fatal(err)
	}
	capU, capW := cap(g.uSnap), cap(g.wSnap)
	if capU == 0 || capW == 0 {
		t.Fatal("snapshot buffers not established")
	}
	for i := 0; i < 7; i++ {
		if _, err := g.Step(s.MaxDt()); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if cap(g.uSnap) != capU || cap(g.wSnap) != capW {
		t.Errorf("snapshot buffers regrew: U %d→%d, W %d→%d",
			capU, cap(g.uSnap), capW, cap(g.wSnap))
	}
	if snap := g.Stats.Snapshot(); snap.Retries == 0 {
		t.Fatalf("injection did not exercise the retry path: %+v", snap)
	}
}

var _ = testprob.Sod
