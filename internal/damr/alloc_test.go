package damr

import (
	"math"
	"testing"

	"rhsc/internal/amr"
	"rhsc/internal/cluster"
	"rhsc/internal/core"
	"rhsc/internal/testprob"
)

// measureAllocs drives persistent rank workers through warmed lockstep
// calls of op — handed a CFL-safe dt — and returns the steady-state
// allocations per call across both ranks.
//
// testing.AllocsPerRun reads the global allocation counter, so the rank
// goroutines are persistent workers driven over channels — a goroutine
// spawn per measured run would be counted.
func measureAllocs(t *testing.T, cfg amr.Config, op func(r *rankRun, dt float64) error) float64 {
	t.Helper()
	p := testprob.Blast2D
	const nbx, ranks = 4, 2
	opts := Options{Ranks: ranks, Net: cluster.Infiniband(), Steps: 1}
	if err := opts.validate(); err != nil {
		t.Fatal(err)
	}
	world := cluster.NewWorld(ranks)
	rs := make([]*rankRun, ranks)
	for rank := 0; rank < ranks; rank++ {
		r, err := newRankRun(world.Comm(rank), p, nbx, cfg, &opts)
		if err != nil {
			t.Fatal(err)
		}
		rs[rank] = r
	}

	starts := make([]chan float64, ranks)
	done := make(chan struct{}, ranks)
	for i, r := range rs {
		starts[i] = make(chan float64)
		go func(r *rankRun, start chan float64) {
			for dt := range start {
				if err := op(r, dt); err != nil {
					t.Errorf("rank %d: %v", r.rank, err)
				}
				done <- struct{}{}
			}
		}(r, starts[i])
	}
	stepAll := func(dt float64) {
		for _, ch := range starts {
			ch <- dt
		}
		for range rs {
			<-done
		}
	}
	defer func() {
		for _, ch := range starts {
			close(ch)
		}
	}()

	// A fixed conservative dt keeps the measured loop clear of the
	// allocating dt collective while staying CFL-stable throughout.
	dt := math.Inf(1)
	for _, r := range rs {
		if d := r.t.MaxDtOf(r.ep.mine); d < dt {
			dt = d
		}
	}
	dt /= 2

	for i := 0; i < 3; i++ { // warm the scratch pools, halo buffers and both checkpoint slots
		stepAll(dt)
	}
	return testing.AllocsPerRun(5, func() { stepAll(dt) })
}

// TestStepZeroAllocs pins the distributed pooling invariant: once the
// epoch's halo send buffers are derived and the solvers' scratch pools
// are warm, a lockstep step — stage advances, packed halo exchanges on
// the pooled double buffers, combine, end-of-step sync with the armed
// CFL reduction — performs zero heap allocations across both ranks.
// The fail-safe case adds per-stage detection and the always-on packed
// mask exchange, which must stay allocation-free while no cell is
// flagged.
//
// The dt collective (FTAllReduceMin) and the regrid/checkpoint phases
// are outside this scope: they run at most once per step or per epoch
// and inherently build survivor-set payloads.
func TestStepZeroAllocs(t *testing.T) {
	step := func(r *rankRun, dt float64) error { return r.t.StepLeaves(r.ep.sols, dt, r.hooks) }
	t.Run("plain", func(t *testing.T) {
		if allocs := measureAllocs(t, blastConfig(), step); allocs != 0 {
			t.Errorf("steady-state distributed step allocates %.1f times, want 0", allocs)
		}
	})
	t.Run("failsafe", func(t *testing.T) {
		cfg := blastConfig()
		cfg.Core.FailSafe = true
		if allocs := measureAllocs(t, cfg, step); allocs != 0 {
			t.Errorf("steady-state fail-safe step allocates %.1f times, want 0", allocs)
		}
	})
	t.Run("rk3", func(t *testing.T) {
		cfg := blastConfig()
		cfg.Core.Integrator = core.RK3
		if allocs := measureAllocs(t, cfg, step); allocs != 0 {
			t.Errorf("steady-state SSP-RK3 distributed step allocates %.1f times, want 0", allocs)
		}
	})
}

// TestCheckpointZeroAllocs pins the buddy checkpoint's storage discipline:
// once both slots have held a generation, encoding the owned leaves into
// the recycled slot, posting it to the ring and copying the predecessor's
// set into the buddy slot allocate nothing on the default fabric.
func TestCheckpointZeroAllocs(t *testing.T) {
	ck := func(r *rankRun, _ float64) error { return r.checkpoint() }
	if allocs := measureAllocs(t, blastConfig(), ck); allocs != 0 {
		t.Errorf("steady-state checkpoint allocates %.1f times, want 0", allocs)
	}
}
