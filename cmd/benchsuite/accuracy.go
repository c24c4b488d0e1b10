package main

import (
	"fmt"
	"io"
	"math"

	"rhsc/internal/core"
	"rhsc/internal/eos"
	"rhsc/internal/exact"
	"rhsc/internal/grid"
	"rhsc/internal/metrics"
	"rhsc/internal/output"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// writeSeries forwards to the output package (kept here so main.go does
// not need the import).
func writeSeries(w io.Writer, headers []string, cols ...[]float64) error {
	return output.WriteSeriesCSV(w, headers, cols...)
}

// runSod evolves the Sod problem at resolution n with the given method
// and returns the L1(rho) error against the exact solution.
func runSod(n int, rc recon.Scheme, rs riemann.Solver) (float64, error) {
	p := testprob.Sod
	g := p.NewGrid(n, rc.Ghost())
	cfg := core.DefaultConfig()
	cfg.Recon = rc
	cfg.Riemann = rs
	s, err := core.New(g, cfg)
	if err != nil {
		return 0, err
	}
	s.InitFromPrim(p.Init)
	if _, err := s.Advance(p.TEnd); err != nil {
		return 0, err
	}
	ref, err := exact.Solve(
		exact.State{Rho: 10, V: 0, P: 13.33},
		exact.State{Rho: 1, V: 0, P: 1e-6}, 5.0/3.0)
	if err != nil {
		return 0, err
	}
	l1 := 0.0
	for i := g.IBeg(); i < g.IEnd(); i++ {
		ex := ref.Sample((g.X(i) - 0.5) / p.TEnd)
		l1 += math.Abs(g.W.Comp[state.IRho][i] - ex.Rho)
	}
	return l1 * g.Dx, nil
}

// table1 is E1: L1 errors and observed convergence rates on the Sod tube.
func (s *suite) table1() error {
	ns := []int{100, 200, 400, 800}
	if s.quick {
		ns = []int{100, 200, 400}
	}
	methods := []struct {
		label string
		rc    recon.Scheme
		rs    riemann.Solver
	}{
		{"plm+hll", recon.PLM{Lim: recon.MonotonizedCentral}, riemann.HLL{}},
		{"plm+hllc", recon.PLM{Lim: recon.MonotonizedCentral}, riemann.HLLC{}},
		{"ppm+hllc", recon.PPM{}, riemann.HLLC{}},
		{"weno5+hllc", recon.WENO5{}, riemann.HLLC{}},
	}
	tb := metrics.NewTable("Table 1: Sod tube L1(rho) vs exact, t=0.4",
		"method", "N", "L1", "rate")
	var csvN, csvErr []float64
	for _, m := range methods {
		prev := math.NaN()
		for _, n := range ns {
			l1, err := runSod(n, m.rc, m.rs)
			if err != nil {
				return err
			}
			rate := math.NaN()
			if !math.IsNaN(prev) {
				rate = math.Log2(prev / l1)
			}
			if math.IsNaN(rate) {
				tb.AddRow(m.label, n, l1, "-")
			} else {
				tb.AddRow(m.label, n, l1, rate)
			}
			prev = l1
			csvN = append(csvN, float64(n))
			csvErr = append(csvErr, l1)
		}
	}
	fmt.Print(tb.String())
	s.writeCSV("table1_sod_convergence.csv", []string{"n", "l1"}, csvN, csvErr)

	// Table 1b: shock tube with transverse velocities against the
	// weak-shock-integrated exact solver (v_t couples through the Lorentz
	// factor; Newtonian intuition fails here).
	l := exact.State2{Rho: 10, Vt: 0.4, P: 13.33}
	r := exact.State2{Rho: 1, Vt: -0.3, P: 0.1}
	refVt, err := exact.SolveVt(l, r, 5.0/3.0)
	if err != nil {
		return err
	}
	const tEndVt = 0.3
	tb2 := metrics.NewTable("Table 1b: transverse-velocity tube, mean |err(rho)|+|err(vt)|",
		"N", "err", "rate")
	prev := math.NaN()
	for _, n := range ns {
		g := grid.New(grid.Geometry{Nx: n, Ny: 1, Nz: 1, Ng: 2, X0: 0, X1: 1})
		g.SetAllBCs(grid.Outflow)
		sol, err := core.New(g, core.DefaultConfig())
		if err != nil {
			return err
		}
		sol.InitFromPrim(func(x, _, _ float64) state.Prim {
			if x < 0.5 {
				return state.Prim{Rho: l.Rho, Vy: l.Vt, P: l.P}
			}
			return state.Prim{Rho: r.Rho, Vy: r.Vt, P: r.P}
		})
		if _, err := sol.Advance(tEndVt); err != nil {
			return err
		}
		sum := 0.0
		for i := g.IBeg(); i < g.IEnd(); i++ {
			ex := refVt.Sample((g.X(i) - 0.5) / tEndVt)
			sum += math.Abs(g.W.Comp[state.IRho][i]-ex.Rho) +
				math.Abs(g.W.Comp[state.IVy][i]-ex.Vt)
		}
		e := sum / float64(n)
		rate := math.NaN()
		if !math.IsNaN(prev) {
			rate = math.Log2(prev / e)
		}
		if math.IsNaN(rate) {
			tb2.AddRow(n, e, "-")
		} else {
			tb2.AddRow(n, e, rate)
		}
		prev = e
	}
	fmt.Print(tb2.String())
	return nil
}

// fig2 is E2: numeric vs exact profiles for the Sod tube and blast wave.
func (s *suite) fig2() error {
	n := 400
	if s.quick {
		n = 200
	}
	cases := []struct {
		prob  *testprob.Problem
		left  exact.State
		right exact.State
		file  string
	}{
		{testprob.Sod, exact.State{Rho: 10, V: 0, P: 13.33},
			exact.State{Rho: 1, V: 0, P: 1e-6}, "fig2_sod_profile.csv"},
		{testprob.Blast, exact.State{Rho: 1, V: 0, P: 1000},
			exact.State{Rho: 1, V: 0, P: 0.01}, "fig2_blast_profile.csv"},
	}
	for _, c := range cases {
		g := c.prob.NewGrid(n, 2)
		cfg := core.DefaultConfig()
		sol, err := core.New(g, cfg)
		if err != nil {
			return err
		}
		sol.InitFromPrim(c.prob.Init)
		if _, err := sol.Advance(c.prob.TEnd); err != nil {
			return err
		}
		ref, err := exact.Solve(c.left, c.right, 5.0/3.0)
		if err != nil {
			return err
		}
		var xs, num, exa, vnum, vexa []float64
		errMax := 0.0
		for i := g.IBeg(); i < g.IEnd(); i++ {
			x := g.X(i)
			ex := ref.Sample((x - 0.5) / c.prob.TEnd)
			rho := g.W.Comp[state.IRho][i]
			xs = append(xs, x)
			num = append(num, rho)
			exa = append(exa, ex.Rho)
			vnum = append(vnum, g.W.Comp[state.IVx][i])
			vexa = append(vexa, ex.V)
			if d := math.Abs(rho - ex.Rho); d > errMax {
				errMax = d
			}
		}
		fmt.Printf("  %-6s N=%d: p*=%.4g v*=%.4g (exact), Linf(rho)=%.3g\n",
			c.prob.Name, n, ref.Pstar, ref.Vstar, errMax)
		s.writeCSV(c.file, []string{"x", "rho", "rho_exact", "v", "v_exact"},
			xs, num, exa, vnum, vexa)
	}
	return nil
}

// table2 is E3: formal order on the smooth advected wave.
func (s *suite) table2() error {
	ns := []int{32, 64, 128, 256}
	if s.quick {
		ns = []int{32, 64, 128}
	}
	methods := []struct {
		label string
		rc    recon.Scheme
		integ core.Integrator
	}{
		{"plm-mc/rk2", recon.PLM{Lim: recon.MonotonizedCentral}, core.RK2},
		{"ppm/rk3", recon.PPM{}, core.RK3},
		{"weno5/rk3", recon.WENO5{}, core.RK3},
	}
	tb := metrics.NewTable("Table 2: smooth-wave L1(rho), t=0.4",
		"method", "N", "L1", "order")
	for _, m := range methods {
		prev := math.NaN()
		for _, n := range ns {
			p := testprob.SmoothWave
			g := p.NewGrid(n, m.rc.Ghost())
			cfg := core.DefaultConfig()
			cfg.Recon = m.rc
			cfg.Integrator = m.integ
			cfg.CFL = 0.3
			cfg.EOS = eos.NewIdealGas(p.Gamma)
			sol, err := core.New(g, cfg)
			if err != nil {
				return err
			}
			sol.InitFromPrim(p.Init)
			if _, err := sol.Advance(p.TEnd); err != nil {
				return err
			}
			l1 := 0.0
			for i := g.IBeg(); i < g.IEnd(); i++ {
				l1 += math.Abs(g.W.Comp[state.IRho][i] - testprob.SmoothWaveRho(g.X(i), p.TEnd))
			}
			l1 *= g.Dx
			order := convergenceOrder(prev, l1, 2, 1)
			if math.IsNaN(order) {
				tb.AddRow(m.label, n, l1, "-")
			} else {
				tb.AddRow(m.label, n, l1, order)
			}
			prev = l1
		}
	}
	fmt.Print(tb.String())
	return nil
}

// ensure grid import is used even under -quick paths.
var _ = grid.Outflow

// convergenceOrder estimates the observed order of accuracy from errors at
// two resolutions: log(eCoarse/eFine) / log(hCoarse/hFine).
func convergenceOrder(eCoarse, eFine, hCoarse, hFine float64) float64 {
	if eFine <= 0 || eCoarse <= 0 || hFine <= 0 || hCoarse <= 0 {
		return math.NaN()
	}
	return math.Log(eCoarse/eFine) / math.Log(hCoarse/hFine)
}
