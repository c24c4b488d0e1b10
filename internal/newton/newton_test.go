package newton

import (
	"math"
	"testing"

	"rhsc/internal/core"
	"rhsc/internal/eos"
	"rhsc/internal/grid"
	"rhsc/internal/recon"
	"rhsc/internal/state"
)

func grid1D(n int) *grid.Grid {
	g := grid.New(grid.Geometry{Nx: n, Ny: 1, Nz: 1, Ng: 2, X0: 0, X1: 1})
	g.SetAllBCs(grid.Outflow)
	return g
}

func TestNewValidation(t *testing.T) {
	g := grid1D(16)
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(); c.Gamma = 1; return c }(),
		func() Config { c := DefaultConfig(); c.CFL = 0; return c }(),
	}
	for i, cfg := range bad {
		if _, err := New(g, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := New(g, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestConsToPrimRoundTrip(t *testing.T) {
	g := grid1D(8)
	s, _ := New(g, DefaultConfig())
	w := state.Prim{Rho: 2.5, Vx: 0.3, Vy: -0.1, Vz: 0.05, P: 1.4}
	got := s.consToPrim(s.primToCons(w))
	if math.Abs(got.Rho-w.Rho) > 1e-14 || math.Abs(got.P-w.P) > 1e-13 ||
		math.Abs(got.Vx-w.Vx) > 1e-14 {
		t.Errorf("round trip %+v -> %+v", w, got)
	}
}

// The classical Sod tube (Γ = 1.4): published exact values are
// p* = 0.30313 and v* = 0.92745; the plateau of the numerical solution
// must land there.
func TestClassicalSod(t *testing.T) {
	g := grid1D(400)
	cfg := DefaultConfig()
	cfg.Gamma = 1.4
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.InitFromPrim(func(x, _, _ float64) state.Prim {
		if x < 0.5 {
			return state.Prim{Rho: 1, P: 1}
		}
		return state.Prim{Rho: 0.125, P: 0.1}
	})
	if _, err := s.Advance(0.2); err != nil {
		t.Fatal(err)
	}
	// Sample the star region (between contact ~0.69 and shock ~0.85 at
	// t=0.2... contact at x = 0.5 + 0.927*0.2*...): sample x = 0.7.
	i := g.IBeg() + int(0.70/g.Dx)
	p := g.W.Comp[state.IP][i]
	v := g.W.Comp[state.IVx][i]
	if math.Abs(p-0.30313) > 0.01 {
		t.Errorf("star pressure %v, want 0.30313", p)
	}
	if math.Abs(v-0.92745) > 0.02 {
		t.Errorf("star velocity %v, want 0.92745", v)
	}
}

func TestConservationPeriodic(t *testing.T) {
	g := grid.New(grid.Geometry{Nx: 64, Ny: 1, Nz: 1, Ng: 2, X0: 0, X1: 1})
	g.SetAllBCs(grid.Periodic)
	s, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.InitFromPrim(func(x, _, _ float64) state.Prim {
		return state.Prim{Rho: 1 + 0.3*math.Sin(2*math.Pi*x), Vx: 0.4, P: 1}
	})
	m0, e0 := g.TotalMass(), 0.0
	g.ForEachInterior(func(idx, _, _, _ int) { e0 += g.U.Comp[state.ITau][idx] })
	if _, err := s.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	m1, e1 := g.TotalMass(), 0.0
	g.ForEachInterior(func(idx, _, _, _ int) { e1 += g.U.Comp[state.ITau][idx] })
	if rel := math.Abs(m1-m0) / m0; rel > 1e-12 {
		t.Errorf("mass drift %v", rel)
	}
	if rel := math.Abs(e1-e0) / e0; rel > 1e-12 {
		t.Errorf("energy drift %v", rel)
	}
}

// In the non-relativistic limit (v ≪ 1, p ≪ ρ) the Newtonian baseline and
// the relativistic solver must agree on the full profile.
func TestMatchesRelativisticInNewtonianLimit(t *testing.T) {
	const n = 256
	const scale = 1e-6 // pressures scaled so cs ~ 1e-3
	init := func(x, _, _ float64) state.Prim {
		if x < 0.5 {
			return state.Prim{Rho: 1, P: 1 * scale}
		}
		return state.Prim{Rho: 0.125, P: 0.1 * scale}
	}
	tEnd := 0.2 / math.Sqrt(scale) // rescale time so the waves move O(domain)

	gn := grid1D(n)
	cfgN := DefaultConfig()
	cfgN.Gamma = 1.4
	ns, err := New(gn, cfgN)
	if err != nil {
		t.Fatal(err)
	}
	ns.InitFromPrim(init)
	if _, err := ns.Advance(tEnd); err != nil {
		t.Fatal(err)
	}

	gr := grid1D(n)
	cfgR := core.DefaultConfig()
	cfgR.EOS = eos.NewIdealGas(1.4)
	rs, err := core.New(gr, cfgR)
	if err != nil {
		t.Fatal(err)
	}
	rs.InitFromPrim(init)
	if _, err := rs.Advance(tEnd); err != nil {
		t.Fatal(err)
	}

	l1, norm := 0.0, 0.0
	for i := gn.IBeg(); i < gn.IEnd(); i++ {
		l1 += math.Abs(gn.W.Comp[state.IRho][i] - gr.W.Comp[state.IRho][i])
		norm += math.Abs(gr.W.Comp[state.IRho][i])
	}
	if rel := l1 / norm; rel > 2e-3 {
		t.Errorf("Newtonian limit mismatch: relative L1 = %v", rel)
	}
}

// In the relativistic regime the baseline must diverge measurably: the
// blast-wave shock position differs between the two solvers — the
// physics argument for building the relativistic solver at all.
func TestDivergesInRelativisticRegime(t *testing.T) {
	const n = 400
	init := func(x, _, _ float64) state.Prim {
		if x < 0.5 {
			return state.Prim{Rho: 1, P: 1000}
		}
		return state.Prim{Rho: 1, P: 0.01}
	}
	shockPos := func(rho []float64, g *grid.Grid) float64 {
		best, bestG := 0.0, 0.0
		for i := g.IBeg() + 1; i < g.IEnd(); i++ {
			if d := math.Abs(rho[i] - rho[i-1]); d > bestG {
				bestG, best = d, g.X(i)
			}
		}
		return best
	}

	// The Newtonian shock moves at ~20 (superluminal!), so only a short
	// time keeps it inside the unit domain.
	const tEnd = 0.01
	gn := grid1D(n)
	ns, _ := New(gn, DefaultConfig())
	ns.InitFromPrim(init)
	if _, err := ns.Advance(tEnd); err != nil {
		t.Fatal(err)
	}

	gr := grid1D(n)
	rs, _ := core.New(gr, core.DefaultConfig())
	rs.InitFromPrim(init)
	if _, err := rs.Advance(tEnd); err != nil {
		t.Fatal(err)
	}

	xn := shockPos(gn.W.Comp[state.IRho], gn)
	xr := shockPos(gr.W.Comp[state.IRho], gr)
	// The relativistic shock must be causal; the Newtonian one races
	// ahead superluminally — the physics argument for the SR solver.
	if xr > 0.5+tEnd+0.01 {
		t.Errorf("relativistic shock at %v is acausal", xr)
	}
	if xn-xr < 0.05 {
		t.Errorf("baseline shock at %v not measurably ahead of relativistic %v", xn, xr)
	}
}

// Reflecting walls conserve mass in the baseline too.
func TestReflectingWalls(t *testing.T) {
	g := grid1D(64)
	g.SetAllBCs(grid.Reflect)
	s, _ := New(g, DefaultConfig())
	s.InitFromPrim(func(x, _, _ float64) state.Prim {
		return state.Prim{Rho: 1, Vx: -0.3, P: 0.5}
	})
	m0 := g.TotalMass()
	if _, err := s.Advance(0.4); err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(g.TotalMass()-m0) / m0; rel > 1e-11 {
		t.Errorf("mass drift %v", rel)
	}
}

// 2-D blast keeps quadrant symmetry in the baseline.
func Test2DSymmetry(t *testing.T) {
	n := 32
	g := grid.New(grid.Geometry{Nx: n, Ny: n, Nz: 1, Ng: 2, X0: -1, X1: 1, Y0: -1, Y1: 1})
	g.SetAllBCs(grid.Outflow)
	s, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.InitFromPrim(func(x, y, _ float64) state.Prim {
		if x*x+y*y < 0.08 {
			return state.Prim{Rho: 1, P: 10}
		}
		return state.Prim{Rho: 1, P: 0.1}
	})
	for i := 0; i < 8; i++ {
		if err := s.Step(s.MaxDt()); err != nil {
			t.Fatal(err)
		}
	}
	for j := g.JBeg(); j < g.JEnd(); j++ {
		for i := g.IBeg(); i < g.IEnd(); i++ {
			mi := g.IBeg() + g.IEnd() - 1 - i
			a := g.W.Comp[state.IRho][g.Idx(i, j, g.KBeg())]
			b := g.W.Comp[state.IRho][g.Idx(mi, j, g.KBeg())]
			if math.Abs(a-b) > 1e-10 {
				t.Fatalf("asymmetry at (%d,%d): %v vs %v", i, j, a, b)
			}
		}
	}
}

func TestStepRejectsBadDt(t *testing.T) {
	g := grid1D(16)
	s, _ := New(g, DefaultConfig())
	if err := s.Step(0); err == nil {
		t.Error("dt=0 accepted")
	}
}

// A NaN cell reconstructs NaN face states in its neighbours (PPM's
// slopes carry it two cells out), and the positivity fallback must
// replace them with the cell averages, as core's admit does: the cells
// two away keep a finite right-hand side. Every comparison with a NaN is
// false, so a fallback written as ρ ≤ 0 || p ≤ 0 lets the NaN through
// to the Riemann solver and on into those cells.
func TestNaNFaceStatesFallBack(t *testing.T) {
	for _, c := range []int{state.IRho, state.IP} {
		g := grid.New(grid.Geometry{Nx: 32, Ny: 1, Nz: 1, Ng: 3, X0: 0, X1: 1})
		g.SetAllBCs(grid.Outflow)
		cfg := DefaultConfig()
		cfg.Recon = recon.PPM{}
		s, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.InitFromPrim(func(_, _, _ float64) state.Prim { return state.Prim{Rho: 1, Vx: 0.1, P: 1} })
		j := g.IBeg() + 16
		g.W.Comp[c][j] = math.NaN()
		rhs := state.NewFields(g.NCells())
		s.computeRHS(rhs)
		for _, i := range []int{j - 2, j + 2} {
			for k, comp := range rhs.Comp {
				if v := comp[i]; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("NaN in component %d of cell %d: cell %d's right-hand side component %d = %v",
						c, j, i, k, v)
				}
			}
		}
	}
}
