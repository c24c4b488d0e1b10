package c2p

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rhsc/internal/eos"
	"rhsc/internal/state"
)

var gamma53 = eos.NewIdealGas(5.0 / 3.0)

func randomPrim(rng *rand.Rand, vmax float64) state.Prim {
	v := vmax * rng.Float64()
	theta := rng.Float64() * math.Pi
	phi := rng.Float64() * 2 * math.Pi
	return state.Prim{
		Rho: math.Exp(rng.Float64()*10 - 5),
		Vx:  v * math.Sin(theta) * math.Cos(phi),
		Vy:  v * math.Sin(theta) * math.Sin(phi),
		Vz:  v * math.Cos(theta),
		P:   math.Exp(rng.Float64()*10 - 5),
	}
}

func primsClose(a, b state.Prim, tol float64) bool {
	rel := func(x, y float64) float64 {
		return math.Abs(x-y) / (1 + math.Max(math.Abs(x), math.Abs(y)))
	}
	return rel(a.Rho, b.Rho) < tol && rel(a.P, b.P) < tol &&
		rel(a.Vx, b.Vx) < tol && rel(a.Vy, b.Vy) < tol && rel(a.Vz, b.Vz) < tol
}

// The fundamental round-trip property: prim -> cons -> prim must be the
// identity to solver tolerance, across many decades of density/pressure and
// Lorentz factors up to ~70.
func TestRoundTripIdealGas(t *testing.T) {
	s := NewSolver(gamma53)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		p0 := randomPrim(rng, 0.9999)
		c := p0.ToCons(gamma53)
		p1, err := s.Recover(c, 0)
		if err != nil {
			t.Fatalf("recover failed for %+v: %v", p0, err)
		}
		if !primsClose(p0, p1, 1e-8) {
			t.Fatalf("round trip drift:\n in  %+v\n out %+v", p0, p1)
		}
	}
}

func TestRoundTripTaubMathews(t *testing.T) {
	tm := eos.TaubMathews{}
	s := NewSolver(tm)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		p0 := randomPrim(rng, 0.999)
		c := p0.ToCons(tm)
		p1, err := s.Recover(c, 0)
		if err != nil {
			t.Fatalf("recover failed for %+v: %v", p0, err)
		}
		if !primsClose(p0, p1, 1e-7) {
			t.Fatalf("round trip drift:\n in  %+v\n out %+v", p0, p1)
		}
	}
}

func TestRoundTripHybrid(t *testing.T) {
	h := eos.NewHybrid(0.3, 2, 5.0/3.0)
	s := NewSolver(h)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 3000; i++ {
		rho := math.Exp(rng.Float64()*4 - 2)
		// Hot states above the cold curve so the EOS is invertible.
		eps := h.Eps(rho, h.Pressure(rho, 0)) * (1 + rng.Float64()*4)
		p := h.Pressure(rho, eps)
		v := 0.95 * rng.Float64()
		p0 := state.Prim{Rho: rho, Vx: v, P: p}
		c := p0.ToCons(h)
		p1, err := s.Recover(c, 0)
		if err != nil {
			t.Fatalf("recover failed for %+v: %v", p0, err)
		}
		if !primsClose(p0, p1, 1e-7) {
			t.Fatalf("round trip drift:\n in  %+v\n out %+v", p0, p1)
		}
	}
}

// A good guess (the exact pressure) must converge in very few Newton
// iterations; this is the hot path during time stepping.
func TestGuessAcceleratesConvergence(t *testing.T) {
	s := NewSolver(gamma53)
	p0 := state.Prim{Rho: 1, Vx: 0.5, P: 0.1}
	c := p0.ToCons(gamma53)
	if _, err := s.Recover(c, p0.P); err != nil {
		t.Fatal(err)
	}
	if iters := s.Stat.NewtonIters.Load(); iters > 5 {
		t.Errorf("exact guess took %d Newton iterations", iters)
	}
}

func TestRestFrameState(t *testing.T) {
	s := NewSolver(gamma53)
	c := state.Cons{D: 2, Tau: 1.2} // from TestPrimToConsKnown: rho=2, p=0.8
	p, err := s.Recover(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Rho-2) > 1e-10 || math.Abs(p.P-0.8) > 1e-10 {
		t.Errorf("rest state: rho=%v p=%v, want 2, 0.8", p.Rho, p.P)
	}
	if p.Vx != 0 || p.Vy != 0 || p.Vz != 0 {
		t.Errorf("rest state has velocity %+v", p)
	}
}

func TestUnphysicalStatesGoToAtmosphere(t *testing.T) {
	s := NewSolver(gamma53)
	bad := []state.Cons{
		{D: -1, Tau: 1},                 // negative D
		{D: 1, Tau: -2},                 // E < 0
		{D: math.NaN(), Tau: 1},         // NaN
		{D: 1e-30, Sx: 100, Tau: 1e-30}, // |S| >> E: superluminal
	}
	for _, c := range bad {
		p, err := s.Recover(c, 0)
		if err == nil {
			t.Errorf("state %+v recovered without error: %+v", c, p)
			continue
		}
		atm := s.atmosphere()
		if p != atm {
			t.Errorf("state %+v did not reset to atmosphere: %+v", c, p)
		}
	}
	if f := s.Stat.Failures.Load(); f != int64(len(bad)) {
		t.Errorf("failure count = %d, want %d", f, len(bad))
	}
}

func TestFloorsApplied(t *testing.T) {
	s := NewSolver(gamma53)
	s.Opts.RhoFloor = 1e-6
	s.Opts.PFloor = 1e-8
	// A very dilute but physical state below the floors.
	p0 := state.Prim{Rho: 1e-9, P: 1e-12}
	c := p0.ToCons(gamma53)
	p, err := s.Recover(c, 0)
	if err != nil {
		t.Fatalf("dilute state failed: %v", err)
	}
	if p.Rho < s.Opts.RhoFloor || p.P < s.Opts.PFloor {
		t.Errorf("floors not applied: %+v", p)
	}
	if s.Stat.FloorHits.Load() == 0 {
		t.Error("floor hits not counted")
	}
}

// Ultra-relativistic regime: W = 100 with pressure-dominated state. This is
// where naive inversions lose all precision.
func TestUltraRelativistic(t *testing.T) {
	s := NewSolver(gamma53)
	v := math.Sqrt(1 - 1e-4) // W = 100
	p0 := state.Prim{Rho: 1e-3, Vx: v, P: 10}
	c := p0.ToCons(gamma53)
	p1, err := s.Recover(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1.P-p0.P)/p0.P > 1e-6 {
		t.Errorf("pressure drift: %v vs %v", p1.P, p0.P)
	}
	if math.Abs(p1.Vx-v) > 1e-9 {
		t.Errorf("velocity drift: %v vs %v", p1.Vx, v)
	}
}

// The bisection fallback must deliver the same answer Newton does.
func TestBisectionFallbackAgrees(t *testing.T) {
	newton := NewSolver(gamma53)
	forced := NewSolver(gamma53)
	forced.Opts.MaxIter = 0 // force every call onto the fallback path
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		p0 := randomPrim(rng, 0.99)
		c := p0.ToCons(gamma53)
		a, err1 := newton.Recover(c, 0)
		b, err2 := forced.Recover(c, 0)
		if err1 != nil || err2 != nil {
			t.Fatalf("recover error: %v %v", err1, err2)
		}
		if !primsClose(a, b, 1e-7) {
			t.Fatalf("fallback disagrees:\n newton %+v\n bisect %+v", a, b)
		}
	}
	if forced.Stat.Bisections.Load() == 0 {
		t.Error("fallback path not exercised")
	}
}

func TestRecoverRange(t *testing.T) {
	s := NewSolver(gamma53)
	n := 64
	cons := state.NewFields(n)
	prim := state.NewFields(n)
	rng := rand.New(rand.NewSource(5))
	want := make([]state.Prim, n)
	for i := 0; i < n; i++ {
		want[i] = randomPrim(rng, 0.99)
		cons.SetCons(i, want[i].ToCons(gamma53))
	}
	if failures := s.RecoverRange(cons, prim, 0, n); failures != 0 {
		t.Fatalf("%d failures", failures)
	}
	for i := 0; i < n; i++ {
		if !primsClose(prim.GetPrim(i), want[i], 1e-8) {
			t.Fatalf("cell %d drift", i)
		}
	}
}

func TestRecoverRangeResyncsFailures(t *testing.T) {
	s := NewSolver(gamma53)
	n := 4
	cons := state.NewFields(n)
	prim := state.NewFields(n)
	good := state.Prim{Rho: 1, P: 1}
	cons.SetCons(0, good.ToCons(gamma53))
	cons.SetCons(1, state.Cons{D: 1, Sx: 100, Tau: 0.1}) // hopeless
	cons.SetCons(2, good.ToCons(gamma53))
	cons.SetCons(3, good.ToCons(gamma53))
	failures := s.RecoverRange(cons, prim, 0, n)
	if failures != 1 {
		t.Fatalf("failures = %d, want 1", failures)
	}
	// The failed cell's cons must now be consistent with its (atmosphere) prim.
	p := prim.GetPrim(1)
	wantCons := p.ToCons(gamma53)
	if got := cons.GetCons(1); math.Abs(got.D-wantCons.D) > 1e-15 {
		t.Errorf("failed cell not resynced: %+v vs %+v", got, wantCons)
	}
}

func TestRecoverRangePanics(t *testing.T) {
	s := NewSolver(gamma53)
	a, b := state.NewFields(4), state.NewFields(5)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("size mismatch not caught")
			}
		}()
		s.RecoverRange(a, b, 0, 4)
	}()
	c := state.NewFields(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad range not caught")
			}
		}()
		s.RecoverRange(a, c, 2, 9)
	}()
}

func TestStatsSnapshot(t *testing.T) {
	s := NewSolver(gamma53)
	p := state.Prim{Rho: 1, P: 1}
	for i := 0; i < 10; i++ {
		if _, err := s.Recover(p.ToCons(gamma53), 0); err != nil {
			t.Fatal(err)
		}
	}
	calls, iters, _, _, failures := s.Stat.Snapshot()
	if calls != 10 || failures != 0 || iters == 0 {
		t.Errorf("stats = calls %d iters %d failures %d", calls, iters, failures)
	}
}

// Fuzz-style robustness: wildly random conserved states (most of them
// garbage) must never panic or return non-finite primitives — the solver
// either recovers a physical state or resets to atmosphere with an error.
func TestRecoverNeverPanicsOnGarbage(t *testing.T) {
	s := NewSolver(gamma53)
	rng := rand.New(rand.NewSource(99))
	randVal := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return -math.Exp(rng.Float64()*40 - 20)
		case 2:
			return math.Exp(rng.Float64()*40 - 20)
		case 3:
			return math.Inf(1)
		case 4:
			return math.NaN()
		default:
			return rng.NormFloat64()
		}
	}
	for i := 0; i < 20000; i++ {
		c := state.Cons{
			D: randVal(), Sx: randVal(), Sy: randVal(), Sz: randVal(), Tau: randVal(),
		}
		p, _ := s.Recover(c, randVal())
		for _, v := range []float64{p.Rho, p.Vx, p.Vy, p.Vz, p.P} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite primitive %+v from %+v", p, c)
			}
		}
		if p.Rho <= 0 || p.P <= 0 || p.VSq() >= 1 {
			t.Fatalf("inadmissible primitive %+v from %+v", p, c)
		}
	}
}

// Concurrent use of one solver must be race-free (run with -race) and
// correct.
func TestConcurrentRecover(t *testing.T) {
	s := NewSolver(gamma53)
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				p0 := randomPrim(rng, 0.99)
				p1, err := s.Recover(p0.ToCons(gamma53), 0)
				if err != nil {
					done <- err
					return
				}
				if !primsClose(p0, p1, 1e-8) {
					done <- ErrUnphysical
					return
				}
			}
			done <- nil
		}(int64(w))
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsConcurrentAccounting pins the Stats atomicity contract: with
// parallel RecoverRange callers over disjoint ranges of one shared
// solver, Snapshot may run concurrently (exercised under -race), and
// once all workers have returned the counters must be exact — one call
// per cell, failures matching the deliberately poisoned cells.
func TestStatsConcurrentAccounting(t *testing.T) {
	s := NewSolver(gamma53)
	const workers = 8
	const perWorker = 256
	n := workers * perWorker
	cons := state.NewFields(n)
	prim := state.NewFields(n)
	rng := rand.New(rand.NewSource(11))
	poisoned := 0
	for i := 0; i < n; i++ {
		if i%97 == 0 {
			// Unrecoverable state: negative conserved density.
			cons.SetCons(i, state.Cons{D: -1, Tau: 1})
			poisoned++
			continue
		}
		cons.SetCons(i, randomPrim(rng, 0.99).ToCons(gamma53))
	}

	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			failures.Add(int64(s.RecoverRange(cons, prim, lo, lo+perWorker)))
		}(w * perWorker)
	}
	// Concurrent snapshots must be race-free and monotone in Calls.
	var last int64
	for i := 0; i < 50; i++ {
		calls, _, _, _, _ := s.Stat.Snapshot()
		if calls < last {
			t.Fatalf("Calls went backwards: %d -> %d", last, calls)
		}
		last = calls
	}
	wg.Wait()

	calls, iters, _, _, failed := s.Stat.Snapshot()
	if calls != int64(n) {
		t.Fatalf("Calls = %d, want %d", calls, n)
	}
	if failed != int64(poisoned) || failures.Load() != int64(poisoned) {
		t.Fatalf("Failures = %d (returned %d), want %d", failed, failures.Load(), poisoned)
	}
	if iters <= 0 {
		t.Fatalf("NewtonIters = %d, want > 0", iters)
	}
}
