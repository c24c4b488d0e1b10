package rhsc

// BenchmarkStep family: the steady-state step pipeline (CFL estimate +
// one full RK2 step) on representative configurations. These are the
// benchmarks behind BENCH_step.json (see cmd/benchsuite stepbench and
// docs/PERFORMANCE.md): each iteration performs exactly what the
// production loop performs per step, so ns/op ÷ zones gives the
// ns/zone-update figure the perf trajectory is gated on. Run with:
//
//	go test -bench=BenchmarkStep -benchmem
import (
	"testing"

	"rhsc/internal/core"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/testprob"
)

// stepBench measures dt := MaxDt(); Step(dt) per iteration — the
// steady-state unit of the production loop (Advance, cluster.Run,
// damr.Run all follow this shape).
func stepBench(b *testing.B, p *testprob.Problem, n int, cfg core.Config) {
	b.Helper()
	s := newSolver(b, p, n, cfg)
	s.RecoverPrimitives()
	// Warm the pipeline (scratch pools, CFL cache) out of the timed region.
	for i := 0; i < 2; i++ {
		if err := s.Step(s.MaxDt()); err != nil {
			b.Fatal(err)
		}
	}
	zones := s.G.Nx * s.G.Ny * s.G.Nz
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt := s.MaxDt()
		if err := s.Step(dt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(zones), "zones/op")
}

func BenchmarkStep(b *testing.B) {
	scheme := func(rc recon.Scheme, rs riemann.Solver) core.Config {
		cfg := core.DefaultConfig()
		cfg.Recon, cfg.Riemann = rc, rs
		return cfg
	}
	b.Run("sod1d", func(b *testing.B) {
		stepBench(b, testprob.Sod, 1024, core.DefaultConfig())
	})
	b.Run("blast2d", func(b *testing.B) {
		stepBench(b, testprob.Blast2D, 128, core.DefaultConfig())
	})
	// The 3-D PLM-MC+HLLC configuration is the headline number recorded
	// in BENCH_step.json (as blast3d-fused).
	b.Run("blast3d", func(b *testing.B) {
		stepBench(b, testprob.Blast3D, 48, core.DefaultConfig())
	})
	// The resilience fallback scheme.
	b.Run("blast3d-pcmhll", func(b *testing.B) {
		stepBench(b, testprob.Blast3D, 48, scheme(recon.PCM{}, riemann.HLL{}))
	})
	b.Run("blast3d-ppm-hll", func(b *testing.B) {
		stepBench(b, testprob.Blast3D, 48, scheme(recon.PPM{}, riemann.HLL{}))
	})
}
