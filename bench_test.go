package rhsc

// One testing.B benchmark per experiment in EXPERIMENTS.md (E1–E10), plus
// micro-benchmarks of the hot kernels (conservative-to-primitive
// inversion, reconstruction, Riemann fluxes). Run with:
//
//	go test -bench=. -benchmem
//
// The E-benchmarks measure a fixed, small unit of each experiment's work
// so they are stable under -benchtime; the full sweeps that regenerate
// the tables live in cmd/benchsuite.

import (
	"math/rand"
	"testing"

	"rhsc/internal/amr"
	"rhsc/internal/c2p"
	"rhsc/internal/cluster"
	"rhsc/internal/core"
	"rhsc/internal/eos"
	"rhsc/internal/grid"
	"rhsc/internal/hetero"
	"rhsc/internal/par"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// newSolver builds a ready-to-step solver for a problem.
func newSolver(b *testing.B, p *testprob.Problem, n int, cfg core.Config) *core.Solver {
	b.Helper()
	g := p.NewGrid(n, cfg.Recon.Ghost())
	s, err := core.New(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.InitFromPrim(p.Init)
	return s
}

// newExecutor builds an executor of the given policy over devices of the
// given specs.
func newExecutor(b *testing.B, pol hetero.Policy, specs ...hetero.Spec) *hetero.Executor {
	b.Helper()
	devs := make([]*hetero.Device, len(specs))
	for i, sp := range specs {
		d, err := hetero.NewDevice(sp)
		if err != nil {
			b.Fatal(err)
		}
		devs[i] = d
	}
	ex, err := hetero.NewExecutor(pol, devs...)
	if err != nil {
		b.Fatal(err)
	}
	return ex
}

// BenchmarkE1_ShockTubeStep measures one full RK2 step of the Sod tube at
// N = 400 — the unit of work behind Table 1.
func BenchmarkE1_ShockTubeStep(b *testing.B) {
	s := newSolver(b, testprob.Sod, 400, core.DefaultConfig())
	dt := s.MaxDt()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(dt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(400*2), "zones/op")
}

// BenchmarkE3_SmoothWaveWENO5 measures the high-order path of Table 2.
func BenchmarkE3_SmoothWaveWENO5(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Recon = recon.WENO5{}
	cfg.Integrator = core.RK3
	s := newSolver(b, testprob.SmoothWave, 256, cfg)
	dt := s.MaxDt()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(dt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_RHS2D measures one RHS evaluation of the 2-D blast at 128²,
// serial and pooled — the kernel behind Table 3.
func BenchmarkE4_RHS2D(b *testing.B) {
	for _, threads := range []int{1, 4} {
		name := map[int]string{1: "serial", 4: "pool4"}[threads]
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			if threads > 1 {
				cfg.Pool = par.NewPool(threads)
			}
			s := newSolver(b, testprob.Blast2D, 128, cfg)
			s.RecoverPrimitives()
			rhs := state.NewFields(s.G.NCells())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ComputeRHS(rhs)
			}
			b.ReportMetric(128*128, "zones/op")
		})
	}
}

// BenchmarkE5_StrongScaling runs a fixed distributed step set at 4 ranks
// (the measurement unit of Fig 4).
func BenchmarkE5_StrongScaling(b *testing.B) {
	cfg := core.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Run(testprob.Sod, 1024, cfg, cluster.Options{
			Ranks: 4, Mode: cluster.Async, Net: cluster.Infiniband(), Steps: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_WeakScaling runs the weak-scaling unit of Fig 5.
func BenchmarkE6_WeakScaling(b *testing.B) {
	cfg := core.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Run(testprob.Sod, 512*4, cfg, cluster.Options{
			Ranks: 4, Mode: cluster.Sync, Net: cluster.Infiniband(), Steps: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_DeviceStep measures a device-scheduled step of the 2-D
// blast (Table 4's unit).
func BenchmarkE7_DeviceStep(b *testing.B) {
	s := newSolver(b, testprob.Blast2D, 64, core.DefaultConfig())
	ex := newExecutor(b, hetero.Static, hetero.SpecK20GPU())
	ex.Attach(s)
	dt := s.MaxDt()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(dt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_HeteroDynamicStep measures the CPU+GPU dynamic-queue step
// (Fig 6's unit).
func BenchmarkE8_HeteroDynamicStep(b *testing.B) {
	s := newSolver(b, testprob.Blast2D, 64, core.DefaultConfig())
	ex := newExecutor(b, hetero.Dynamic, hetero.SpecHostCPU(4), hetero.SpecK20GPU())
	ex.Attach(s)
	dt := s.MaxDt()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(dt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_AMRStep measures one adaptive step of the 1-D blast tree
// (Fig 7's unit).
func BenchmarkE9_AMRStep(b *testing.B) {
	ac := amr.DefaultConfig(core.DefaultConfig())
	ac.MaxLevel = 2
	tr, err := amr.NewTree(testprob.Blast, 8, ac)
	if err != nil {
		b.Fatal(err)
	}
	dt := tr.MaxDt()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Step(dt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10_Ablation measures one RHS per reconstruction × Riemann
// combination on a 1-D grid (Table 5's unit).
func BenchmarkE10_Ablation(b *testing.B) {
	recons := map[string]recon.Scheme{
		"pcm":   recon.PCM{},
		"plm":   recon.PLM{Lim: recon.MonotonizedCentral},
		"ppm":   recon.PPM{},
		"weno5": recon.WENO5{},
	}
	solvers := map[string]riemann.Solver{
		"llf": riemann.LLF{}, "hll": riemann.HLL{}, "hllc": riemann.HLLC{},
	}
	for rn, rc := range recons {
		for sn, rs := range solvers {
			b.Run(rn+"_"+sn, func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.Recon = rc
				cfg.Riemann = rs
				s := newSolver(b, testprob.Sod, 4096, cfg)
				s.RecoverPrimitives()
				rhs := state.NewFields(s.G.NCells())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.ComputeRHS(rhs)
				}
				b.ReportMetric(4096, "zones/op")
			})
		}
	}
}

// --- kernel micro-benchmarks ---------------------------------------------

// BenchmarkC2PRecover measures the conservative→primitive inversion.
func BenchmarkC2PRecover(b *testing.B) {
	g := eos.NewIdealGas(5.0 / 3.0)
	s := c2p.NewSolver(g)
	rng := rand.New(rand.NewSource(1))
	const n = 1024
	u, w := state.NewFields(n), state.NewFields(n)
	for i := 0; i < n; i++ {
		v := 0.95 * rng.Float64()
		p := state.Prim{Rho: 1 + rng.Float64(), Vx: v, P: 0.1 + rng.Float64()}
		u.SetCons(i, p.ToCons(g))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One cell at a time, with no pressure guess.
		j := i % n
		w.Comp[state.IP][j] = 0
		if s.RecoverRange(u, w, j, j+1) != 0 {
			b.Fatal("recovery reset a cell to atmosphere")
		}
	}
}

// BenchmarkReconRow measures reconstruction per scheme, in ns per
// filled face, on three sets cut from a warmed 48³ blast3d state (every
// primitive component) or made up: one 1024-cell i%17 sawtooth and the x
// rows the sweep hands a scheme (48 + 2·Ghost cells), both through
// Reconstruct, and the y face planes of a tile, through Edges on W in
// place: 8 cell lines of 48 lanes per call, one per tile row of the mid-k
// plane, counting each cell's two edges as one face. The blast data mix
// quiescent plateaus, smooth flanks and the shock, so the limiters'
// branches behave as in a step.
func BenchmarkReconRow(b *testing.B) {
	saw := make([]float64, 1024)
	for i := range saw {
		saw[i] = float64(i % 17)
	}
	s := warmBlast3D(b)
	g := s.G
	for _, sch := range []recon.Scheme{
		recon.PCM{}, recon.PLM{Lim: recon.Minmod}, recon.PLM{Lim: recon.MonotonizedCentral},
		recon.PLM{Lim: recon.VanLeer}, recon.PPM{}, recon.WENO5{}, recon.WENOZ{},
	} {
		gh := sch.Ghost()
		for _, set := range []struct {
			name string
			rows [][]float64
		}{
			{"sawtooth", [][]float64{saw}},
			{"blast3d-x", blastRows(g, 48+2*gh)},
		} {
			faces := 0
			for _, u := range set.rows {
				faces += len(u) - 2*gh + 1
			}
			uL := make([]float64, len(set.rows[0])+1)
			uR := make([]float64, len(uL))
			b.Run(sch.Name()+"/"+set.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, u := range set.rows {
						sch.Reconstruct(u, uL, uR)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*faces), "ns/face")
			})
		}
		const lines = 8
		lo, hi := make([]float64, lines*g.Nx), make([]float64, lines*g.Nx)
		k := g.Ng + g.Nz/2
		faces := state.NComp * g.Ny * g.Nx
		b.Run(sch.Name()+"/blast3d-plane", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, w := range g.W.Comp {
					for j0 := g.JBeg(); j0 < g.JEnd(); j0 += lines {
						sch.Edges(w, g.Idx(g.IBeg(), j0, k), g.TotalX, lines, lo, hi)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*faces), "ns/face")
		})
	}
}

// warmBlast3D returns a 48³ PPM+HLL blast3d solver with three ghost
// layers, stepped until the blast wave has left its initial sphere.
func warmBlast3D(b *testing.B) *core.Solver {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.Recon, cfg.Riemann = recon.PPM{}, riemann.HLL{}
	s := newSolver(b, testprob.Blast3D, 48, cfg)
	s.RecoverPrimitives()
	for i := 0; i < 8; i++ {
		if err := s.Step(s.MaxDt()); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// blastRows gathers x rows of n cells of every primitive component of
// g.W, centred on the interior, at every interior j of the mid-k plane.
// A row's (n−48)/2 ghost cells on each side are the cells around it, as
// in the sweep.
func blastRows(g *grid.Grid, n int) [][]float64 {
	k := g.Ng + g.Nz/2
	var rows [][]float64
	for c := 0; c < state.NComp; c++ {
		w := g.W.Comp[c]
		for j := g.Ng; j < g.Ng+g.Ny; j++ {
			u := make([]float64, n)
			for i := range u {
				u[i] = w[g.Idx(g.Ng+g.Nx/2-n/2+i, j, k)]
			}
			rows = append(rows, u)
		}
	}
	return rows
}

// BenchmarkRiemannFlux measures a single face flux per solver.
func BenchmarkRiemannFlux(b *testing.B) {
	g := eos.NewIdealGas(5.0 / 3.0)
	pl := state.Prim{Rho: 10, Vx: 0.1, P: 13.33}
	pr := state.Prim{Rho: 1, Vx: -0.2, P: 0.1}
	for _, s := range []riemann.Solver{riemann.LLF{}, riemann.HLL{}, riemann.HLLC{}} {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = s.Flux(g, pl, pr, state.X)
			}
		})
	}
}

// BenchmarkHaloExchange measures the distributed ghost-fill round trip.
func BenchmarkHaloExchange(b *testing.B) {
	cfg := core.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Run(testprob.Sod, 256, cfg, cluster.Options{
			Ranks: 2, Steps: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
