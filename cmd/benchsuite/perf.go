package main

import (
	"fmt"
	"runtime"
	"time"

	"rhsc/internal/core"
	"rhsc/internal/metrics"
	"rhsc/internal/newton"
	"rhsc/internal/par"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// newRHS allocates a right-hand-side field matching the solver's grid.
func newRHS(s *core.Solver) *state.Fields { return state.NewFields(s.G.NCells()) }

// table3 is E4: single-node thread throughput on the 2-D blast.
func (s *suite) table3() error {
	n := 192
	steps := 4
	if s.quick {
		n, steps = 96, 3
	}
	threads := []int{1, 2, 4, 8}
	tb := metrics.NewTable(
		fmt.Sprintf("Table 3: thread throughput, %d^2 blast, %d steps (host has %d core(s))",
			n, steps, runtime.NumCPU()),
		"threads", "wall", "Mzups", "speedup", "eff%")
	var t1 time.Duration
	var csvP, csvM []float64
	for _, p := range threads {
		prob := testprob.Blast2D
		g := prob.NewGrid(n, 2)
		cfg := core.DefaultConfig()
		if p > 1 {
			cfg.Pool = par.NewPool(p)
		}
		sol, err := core.New(g, cfg)
		if err != nil {
			return err
		}
		sol.InitFromPrim(prob.Init)
		start := time.Now()
		for i := 0; i < steps; i++ {
			if err := sol.Step(sol.MaxDt()); err != nil {
				return err
			}
		}
		el := time.Since(start)
		if p == 1 {
			t1 = el
		}
		tb.AddRow(p, el, metrics.Throughput(sol.St.ZoneUpdates.Load(), el),
			metrics.Speedup(t1, el), metrics.Efficiency(t1, el, p))
		csvP = append(csvP, float64(p))
		csvM = append(csvM, metrics.Throughput(sol.St.ZoneUpdates.Load(), el))
	}
	fmt.Print(tb.String())
	if runtime.NumCPU() == 1 {
		fmt.Println("  note: host exposes a single core; wall-clock thread scaling is")
		fmt.Println("  necessarily flat here. On a P-core node the same harness shows")
		fmt.Println("  near-linear speedup until memory bandwidth saturates (see E5/E6")
		fmt.Println("  for the modelled multi-node curves, which are host-independent).")
	}
	s.writeCSV("table3_threads.csv", []string{"threads", "mzups"}, csvP, csvM)
	return nil
}

// table5 is E10: the reconstruction x Riemann-solver cost ablation — the
// per-RHS cost on a long 1-D grid, every combination on the one face-flux
// kernel.
func (s *suite) table5() error {
	n := 200_000
	if s.quick {
		n = 50_000
	}
	recons := []recon.Scheme{
		recon.PCM{},
		recon.PLM{Lim: recon.MonotonizedCentral},
		recon.PPM{},
		recon.WENO5{},
	}
	solvers := []riemann.Solver{riemann.LLF{}, riemann.HLL{}, riemann.HLLC{}}

	tb := metrics.NewTable(
		fmt.Sprintf("Table 5: RHS cost ablation, 1-D N=%d (ns/zone)", n),
		"recon", "riemann", "ns/zone", "rel")
	var baseline, plmHLLC float64
	for _, rc := range recons {
		for _, rs := range solvers {
			p := testprob.Sod
			g := p.NewGrid(n, rc.Ghost())
			cfg := core.DefaultConfig()
			cfg.Recon = rc
			cfg.Riemann = rs
			sol, err := core.New(g, cfg)
			if err != nil {
				return err
			}
			sol.InitFromPrim(p.Init)
			sol.RecoverPrimitives()
			rhs := newRHS(sol)
			// Warm once, then time a few evaluations.
			sol.ComputeRHS(rhs)
			const reps = 3
			start := time.Now()
			for i := 0; i < reps; i++ {
				sol.ComputeRHS(rhs)
			}
			perZone := float64(time.Since(start).Nanoseconds()) / float64(reps*n)
			if baseline == 0 {
				baseline = perZone
			}
			if rc.Name() == "plm-mc" && rs.Name() == "hllc" {
				plmHLLC = perZone
			}
			tb.AddRow(rc.Name(), rs.Name(), perZone, perZone/baseline)
		}
	}
	fmt.Print(tb.String())

	// Baseline row: the Newtonian Euler RHS on the same grid measures the
	// "relativity tax" (conservative-to-primitive iteration + heavier
	// flux algebra).
	{
		p := testprob.Sod
		g := p.NewGrid(n, 2)
		cfgN := newton.DefaultConfig()
		ns, err := newton.New(g, cfgN)
		if err != nil {
			return err
		}
		ns.InitFromPrim(p.Init)
		dt := ns.MaxDt() * 1e-6 // negligible step: measures two RHS evals
		start := time.Now()
		const reps = 3
		for i := 0; i < reps; i++ {
			if err := ns.Step(dt); err != nil {
				return err
			}
		}
		perZone := float64(time.Since(start).Nanoseconds()) / float64(reps*2*n)
		fmt.Printf("  newtonian baseline (plm+hllc): %.4g ns/zone — the relativistic\n", perZone)
		if perZone > 0 && plmHLLC > 0 {
			fmt.Printf("  solver costs %.2fx the classical one per zone (c2p + SR flux algebra).\n",
				plmHLLC/perZone)
		}
	}
	return nil
}
