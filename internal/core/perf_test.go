package core

import (
	"testing"

	"rhsc/internal/eos"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/testprob"
)

// newSteppedSolver builds a serial solver on problem p at resolution n,
// initialises it, and advances `warm` CFL steps so every pooled buffer
// (row scratch, CFL rows, snapshot-free steady state) is established.
func newSteppedSolver(t testing.TB, p *testprob.Problem, n, warm int, mut func(*Config)) *Solver {
	t.Helper()
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	g := p.NewGrid(n, cfg.Recon.Ghost())
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitFromPrim(p.Init); err != nil {
		t.Fatal(err)
	}
	s.RecoverPrimitives()
	for i := 0; i < warm; i++ {
		if err := s.Step(s.MaxDt()); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestStepZeroAllocs pins the central pooling invariant of the step
// pipeline: after warmup, a serial MaxDt+Step cycle performs zero heap
// allocations — the CFL reduction rides the final recovery sweep, row
// scratch comes from the solver's free list, and the stage loop's hooks
// are bound once at construction. (Pool-backed runs additionally
// pay par.ParallelFor's single hoisted closure per traversal; the
// serial configuration is the one with a zero bound to enforce.)
//
// The generic-/fused- row names predate the single flux kernel; the rows
// that still set Config.Fused pin that the inert flag costs nothing.
func TestStepZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		p    *testprob.Problem
		n    int
		mut  func(*Config)
	}{
		{"generic-2d", testprob.Blast2D, 48, nil},
		{"fused-plm-hllc-2d", testprob.Blast2D, 48, func(c *Config) { c.Fused = true }},
		{"fused-pcm-hll-2d", testprob.Blast2D, 48, func(c *Config) {
			c.Recon = recon.PCM{}
			c.Riemann = riemann.HLL{}
		}},
		{"ppm-hll-2d", testprob.Blast2D, 48, func(c *Config) {
			c.Recon = recon.PPM{}
			c.Riemann = riemann.HLL{}
		}},
		{"weno5-hllc-2d", testprob.Blast2D, 48, func(c *Config) { c.Recon = recon.WENO5{} }},
		{"plm-hllc-taub-2d", testprob.Blast2D, 48, func(c *Config) { c.EOS = eos.TaubMathews{} }},
		// The fail-safe detector rides every stage of a clean run; the
		// zero-troubled steady state must stay allocation-free (mask and
		// snapshot buffers are allocated once, detector chunks pre-bound).
		{"failsafe-2d", testprob.Blast2D, 48, func(c *Config) { c.FailSafe = true }},
		{"failsafe-fused-2d", testprob.Blast2D, 48, func(c *Config) {
			c.Fused = true
			c.FailSafe = true
		}},
		// Every integrator walks the one stage loop; RK3's third row must
		// add no allocation either. (Under FailSafe this blast trips the
		// detector within a few RK3 steps, and the repair is the rare path
		// the zero bound does not cover.)
		{"rk3-2d", testprob.Blast2D, 48, func(c *Config) { c.Integrator = RK3 }},
	}
	zeroAllocSteps := func(t *testing.T, s *Solver) {
		var stepErr error
		allocs := testing.AllocsPerRun(5, func() {
			if err := s.Step(s.MaxDt()); err != nil {
				stepErr = err
			}
		})
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		if allocs != 0 {
			t.Errorf("steady-state MaxDt+Step allocates %.1f times, want 0", allocs)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			zeroAllocSteps(t, newSteppedSolver(t, tc.p, tc.n, 3, tc.mut))
		})
	}
	// The tracer's ghost fill runs on its own slice after every recovery.
	// It is enabled after the warm-up steps; AllocsPerRun's own warm-up
	// step settles it.
	t.Run("tracer-sod-1d", func(t *testing.T) {
		s := newSteppedSolver(t, testprob.Sod, 400, 3, nil)
		if err := s.EnableTracer(func(x, _, _ float64) float64 { return x }); err != nil {
			t.Fatal(err)
		}
		zeroAllocSteps(t, s)
	})
}

// TestMaxDtCachedMatchesTraversal: the in-sweep CFL reduction consumed
// by the cached MaxDt combine must be bitwise identical to the explicit
// full-grid traversal taken after an invalidation — with the Γ-law sound
// speed inlined and through the EOS interface, at every step of an
// evolving run.
func TestMaxDtCachedMatchesTraversal(t *testing.T) {
	muts := map[string]func(*Config){
		"generic": nil,
		"fused":   func(c *Config) { c.Fused = true },
		"fused-pcm-hll": func(c *Config) {
			c.Recon = recon.PCM{}
			c.Riemann = riemann.HLL{}
		},
		"taub": func(c *Config) { c.EOS = eos.TaubMathews{} },
	}
	for name, mut := range muts {
		t.Run(name, func(t *testing.T) {
			s := newSteppedSolver(t, testprob.Blast2D, 48, 0, mut)
			for i := 0; i < 6; i++ {
				cached := s.MaxDt()
				s.InvalidateCFL()
				if fresh := s.MaxDt(); fresh != cached {
					t.Fatalf("step %d: cached MaxDt %v != traversal %v", i, cached, fresh)
				}
				if err := s.Step(s.MaxDt()); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestScratchFreeListBounded: row scratch cycles through the solver's
// free list — returned after every sweep (not leaked) and dropped when
// the list is full, so the footprint is bounded by the list capacity.
func TestScratchFreeListBounded(t *testing.T) {
	s := newSteppedSolver(t, testprob.Blast2D, 48, 4, nil)
	if n := len(s.scratch); n == 0 {
		t.Error("no scratch returned to the free list after stepping")
	}
	// Drain: every pooled scratch must be usable (fully allocated).
	drained := 0
	for {
		select {
		case sc := <-s.scratch:
			if sc == nil || len(sc.fx[0]) == 0 {
				t.Fatal("free list holds an unusable scratch")
			}
			drained++
			continue
		default:
		}
		break
	}
	if drained > cap(s.scratch) {
		t.Errorf("free list held %d scratches, capacity %d", drained, cap(s.scratch))
	}
	// And the solver keeps working after a full drain.
	if err := s.Step(s.MaxDt()); err != nil {
		t.Fatal(err)
	}
}
