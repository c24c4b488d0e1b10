package core

import (
	"math"
	"testing"

	"rhsc/internal/exact"
	"rhsc/internal/grid"
	"rhsc/internal/par"
	"rhsc/internal/recon"
	"rhsc/internal/state"
)

func grid1D(n, ng int) *grid.Grid {
	g := grid.New(grid.Geometry{Nx: n, Ny: 1, Nz: 1, Ng: ng, X0: 0, X1: 1})
	g.SetAllBCs(grid.Outflow)
	return g
}

func sodInit(x, _, _ float64) state.Prim {
	if x < 0.5 {
		return state.Prim{Rho: 10, P: 13.33}
	}
	return state.Prim{Rho: 1, P: 1e-6}
}

func TestNewValidation(t *testing.T) {
	g := grid1D(16, 2)
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(); c.CFL = 0; return c }(),
		func() Config { c := DefaultConfig(); c.CFL = 1.5; return c }(),
		func() Config { c := DefaultConfig(); c.Integrator = 0; return c }(),
		func() Config { c := DefaultConfig(); c.Recon = recon.WENO5{}; return c }(), // ghost 3 > 2
	}
	for i, cfg := range bad {
		if _, err := New(g, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := New(g, DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestInitFromPrimConsistency(t *testing.T) {
	g := grid1D(32, 2)
	s, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.InitFromPrim(sodInit)
	// U must be PrimToCons of W everywhere in the interior.
	g.ForEachInterior(func(idx, i, j, k int) {
		w := g.W.GetPrim(idx)
		want := w.ToCons(s.Cfg.EOS)
		got := g.U.GetCons(idx)
		if math.Abs(got.D-want.D) > 1e-14 || math.Abs(got.Tau-want.Tau) > 1e-14 {
			t.Fatalf("cell %d inconsistent: %+v vs %+v", idx, got, want)
		}
	})
}

func TestInitUnphysicalErrors(t *testing.T) {
	g := grid1D(8, 2)
	s, _ := New(g, DefaultConfig())
	err := s.InitFromPrim(func(x, _, _ float64) state.Prim { return state.Prim{Rho: -1, P: 1} })
	if err == nil {
		t.Fatal("unphysical init accepted")
	}
}

func TestMaxDtScalesWithResolution(t *testing.T) {
	mk := func(n int) float64 {
		g := grid1D(n, 2)
		s, _ := New(g, DefaultConfig())
		s.InitFromPrim(sodInit)
		return s.MaxDt()
	}
	dt64, dt128 := mk(64), mk(128)
	if dt64 <= 0 || dt128 <= 0 {
		t.Fatalf("non-positive dt: %v %v", dt64, dt128)
	}
	if r := dt64 / dt128; math.Abs(r-2) > 1e-6 {
		t.Errorf("dt ratio = %v, want 2", r)
	}
	// Wave speeds are strictly below c = 1, so the CFL step must be at
	// least CFL·dx (and would equal it only for light-speed signals).
	if dt64 < 0.4/64.0 {
		t.Errorf("dt %v below the light-speed CFL floor %v", dt64, 0.4/64.0)
	}
}

// The headline validation: the relativistic Sod tube converges to the
// exact solution. L1(rho) at N=200 must be small and roughly halve when N
// doubles (first order at the discontinuities).
func TestSodConvergesToExact(t *testing.T) {
	ref, err := exact.Solve(
		exact.State{Rho: 10, V: 0, P: 13.33},
		exact.State{Rho: 1, V: 0, P: 1e-6}, 5.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	const tEnd = 0.35
	l1 := func(n int) float64 {
		g := grid1D(n, 2)
		s, err := New(g, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.InitFromPrim(sodInit)
		if _, err := s.Advance(tEnd); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i := g.IBeg(); i < g.IEnd(); i++ {
			ex := ref.Sample((g.X(i) - 0.5) / tEnd)
			sum += math.Abs(g.W.Comp[state.IRho][i] - ex.Rho)
		}
		return sum * g.Dx
	}
	e200 := l1(200)
	e400 := l1(400)
	if e200 > 0.35 {
		t.Errorf("L1(rho) at N=200 = %v, too large", e200)
	}
	rate := e200 / e400
	if rate < 1.4 {
		t.Errorf("L1 convergence rate %v < 1.4 (e200=%v e400=%v)", rate, e200, e400)
	}
}

// Blast wave (Problem 2): much harder (W ~ 3.6, thin shell); the solver
// must remain stable and put the shock in the right place.
func TestBlastWaveStability(t *testing.T) {
	ref, err := exact.Solve(
		exact.State{Rho: 1, V: 0, P: 1000},
		exact.State{Rho: 1, V: 0, P: 0.01}, 5.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	g := grid1D(400, 2)
	s, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.InitFromPrim(func(x, _, _ float64) state.Prim {
		if x < 0.5 {
			return state.Prim{Rho: 1, P: 1000}
		}
		return state.Prim{Rho: 1, P: 0.01}
	})
	const tEnd = 0.35
	if _, err := s.Advance(tEnd); err != nil {
		t.Fatal(err)
	}
	// Locate the numerical shock (max density gradient) and compare with
	// the exact shock position 0.5 + V_s t.
	wantShock := 0.5 + ref.RightSpeed*tEnd
	best, bestG := 0.0, 0.0
	for i := g.IBeg() + 1; i < g.IEnd(); i++ {
		gr := math.Abs(g.W.Comp[state.IRho][i] - g.W.Comp[state.IRho][i-1])
		if gr > bestG {
			bestG, best = gr, g.X(i)
		}
	}
	if math.Abs(best-wantShock) > 0.02 {
		t.Errorf("shock at %v, want %v", best, wantShock)
	}
	// Peak Lorentz factor should approach the exact v* plateau.
	vmax := 0.0
	for i := g.IBeg(); i < g.IEnd(); i++ {
		if v := g.W.Comp[state.IVx][i]; v > vmax {
			vmax = v
		}
	}
	if math.Abs(vmax-ref.Vstar) > 0.02 {
		t.Errorf("peak velocity %v, want %v", vmax, ref.Vstar)
	}
}

// Exact conservation: on a periodic domain the totals of D, S and tau must
// be conserved to near roundoff regardless of the flow.
func TestConservationPeriodic(t *testing.T) {
	g := grid.New(grid.Geometry{Nx: 64, Ny: 1, Nz: 1, Ng: 2, X0: 0, X1: 1})
	g.SetAllBCs(grid.Periodic)
	cfg := DefaultConfig()
	cfg.Integrator = RK3
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.InitFromPrim(func(x, _, _ float64) state.Prim {
		return state.Prim{
			Rho: 1 + 0.5*math.Sin(2*math.Pi*x),
			Vx:  0.3 + 0.2*math.Cos(2*math.Pi*x),
			P:   1 + 0.3*math.Sin(4*math.Pi*x),
		}
	})
	m0, e0 := g.TotalMass(), g.TotalEnergy()
	sx0, _, _ := g.TotalMomentum()
	if _, err := s.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	m1, e1 := g.TotalMass(), g.TotalEnergy()
	sx1, _, _ := g.TotalMomentum()
	if rel := math.Abs(m1-m0) / m0; rel > 1e-12 {
		t.Errorf("mass drift %v", rel)
	}
	if rel := math.Abs(e1-e0) / e0; rel > 1e-12 {
		t.Errorf("energy drift %v", rel)
	}
	if diff := math.Abs(sx1 - sx0); diff > 1e-12*(1+math.Abs(sx0)) {
		t.Errorf("momentum drift %v", diff)
	}
}

// A contact wave (uniform p and v, sinusoidal rho) advects exactly:
// rho(x,t) = rho0(x - v t). Convergence to this solution measures the
// formal order of the full scheme.
func TestSmoothAdvectionConvergence(t *testing.T) {
	const v0, tEnd = 0.5, 0.4
	rho0 := func(x float64) float64 { return 1 + 0.3*math.Sin(2*math.Pi*x) }
	run := func(n int, sch recon.Scheme, integ Integrator) float64 {
		ng := sch.Ghost()
		g := grid.New(grid.Geometry{Nx: n, Ny: 1, Nz: 1, Ng: ng, X0: 0, X1: 1})
		g.SetAllBCs(grid.Periodic)
		cfg := DefaultConfig()
		cfg.Recon = sch
		cfg.Integrator = integ
		cfg.CFL = 0.3
		s, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.InitFromPrim(func(x, _, _ float64) state.Prim {
			return state.Prim{Rho: rho0(x), Vx: v0, P: 1}
		})
		if _, err := s.Advance(tEnd); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i := g.IBeg(); i < g.IEnd(); i++ {
			want := rho0(math.Mod(g.X(i)-v0*tEnd+2, 1))
			sum += math.Abs(g.W.Comp[state.IRho][i] - want)
		}
		return sum * g.Dx
	}
	// PLM + RK2: ~2nd order.
	e1 := run(32, recon.PLM{Lim: recon.MonotonizedCentral}, RK2)
	e2 := run(64, recon.PLM{Lim: recon.MonotonizedCentral}, RK2)
	if order := math.Log2(e1 / e2); order < 1.5 {
		t.Errorf("PLM order %v < 1.5 (e=%v, %v)", order, e1, e2)
	}
	// WENO5 + RK3: >= 2.5 observed (time error limits below formal 5).
	e3 := run(32, recon.WENO5{}, RK3)
	e4 := run(64, recon.WENO5{}, RK3)
	if order := math.Log2(e3 / e4); order < 2.2 {
		t.Errorf("WENO5 order %v < 2.2 (e=%v, %v)", order, e3, e4)
	}
	// WENO5 must also be more accurate in absolute terms.
	if e3 > e1 {
		t.Errorf("WENO5 error %v worse than PLM %v", e3, e1)
	}
}

// Reflecting walls: colliding flow against a wall conserves mass and stays
// finite; velocity at the wall tends to zero.
func TestReflectingWall(t *testing.T) {
	g := grid1D(64, 2)
	g.SetAllBCs(grid.Reflect)
	s, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.InitFromPrim(func(x, _, _ float64) state.Prim {
		return state.Prim{Rho: 1, Vx: -0.5, P: 0.1} // slam into left wall
	})
	m0 := g.TotalMass()
	if _, err := s.Advance(0.3); err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(g.TotalMass()-m0) / m0; rel > 1e-11 {
		t.Errorf("mass drift %v with reflecting walls", rel)
	}
	// A right-moving reflected shock must have formed: density > 1 near
	// the left wall.
	if rho := g.W.Comp[state.IRho][g.IBeg()]; rho < 1.5 {
		t.Errorf("no reflected compression at wall: rho = %v", rho)
	}
}

// Pool execution must give bitwise-identical results to serial execution:
// strips write disjoint cells and each strip is deterministic.
func TestParallelMatchesSerial(t *testing.T) {
	run := func(pool *par.Pool) []float64 {
		g := grid.New(grid.Geometry{Nx: 64, Ny: 32, Nz: 1, Ng: 2,
			X0: 0, X1: 1, Y0: 0, Y1: 1})
		g.SetAllBCs(grid.Outflow)
		cfg := DefaultConfig()
		cfg.Pool = pool
		s, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.InitFromPrim(func(x, y, _ float64) state.Prim {
			r2 := (x-0.5)*(x-0.5) + (y-0.5)*(y-0.5)
			if r2 < 0.01 {
				return state.Prim{Rho: 1, P: 100}
			}
			return state.Prim{Rho: 1, P: 0.1}
		})
		for step := 0; step < 5; step++ {
			if err := s.Step(s.MaxDt()); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]float64, g.NCells())
		copy(out, g.U.Comp[state.ID])
		return out
	}
	serial := run(nil)
	parallel := run(par.NewPool(8))
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("cell %d differs: %v vs %v", i, serial[i], parallel[i])
		}
	}
}

// 2-D cylindrical blast must preserve the quadrant symmetry of its initial
// data (a strong test of sweep-order and indexing bugs).
func TestBlast2DQuadrantSymmetry(t *testing.T) {
	n := 32
	g := grid.New(grid.Geometry{Nx: n, Ny: n, Nz: 1, Ng: 2,
		X0: -1, X1: 1, Y0: -1, Y1: 1})
	g.SetAllBCs(grid.Outflow)
	s, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.InitFromPrim(func(x, y, _ float64) state.Prim {
		if x*x+y*y < 0.08 {
			return state.Prim{Rho: 1, P: 100}
		}
		return state.Prim{Rho: 1, P: 0.05}
	})
	for step := 0; step < 10; step++ {
		if err := s.Step(s.MaxDt()); err != nil {
			t.Fatal(err)
		}
	}
	// rho(i,j) must equal rho(mirror_i, j) and rho(i, mirror_j).
	for k := g.KBeg(); k < g.KEnd(); k++ {
		for j := g.JBeg(); j < g.JEnd(); j++ {
			for i := g.IBeg(); i < g.IEnd(); i++ {
				mi := g.IBeg() + g.IEnd() - 1 - i
				mj := g.JBeg() + g.JEnd() - 1 - j
				a := g.W.Comp[state.IRho][g.Idx(i, j, k)]
				bx := g.W.Comp[state.IRho][g.Idx(mi, j, k)]
				by := g.W.Comp[state.IRho][g.Idx(i, mj, k)]
				if math.Abs(a-bx) > 1e-10 || math.Abs(a-by) > 1e-10 {
					t.Fatalf("symmetry broken at (%d,%d): %v vs %v, %v", i, j, a, bx, by)
				}
			}
		}
	}
}

func TestStatsCounting(t *testing.T) {
	g := grid1D(32, 2)
	cfg := DefaultConfig()
	cfg.Integrator = RK2
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.InitFromPrim(sodInit)
	for i := 0; i < 3; i++ {
		if err := s.Step(s.MaxDt()); err != nil {
			t.Fatal(err)
		}
	}
	if s.St.Steps.Load() != 3 {
		t.Errorf("steps = %d", s.St.Steps.Load())
	}
	if s.St.RHSEvals.Load() != 6 { // 2 stages x 3 steps
		t.Errorf("rhs evals = %d", s.St.RHSEvals.Load())
	}
	if s.St.ZoneUpdates.Load() != 6*32 {
		t.Errorf("zone updates = %d", s.St.ZoneUpdates.Load())
	}
}

func TestAdvanceLandsExactly(t *testing.T) {
	g := grid1D(32, 2)
	s, _ := New(g, DefaultConfig())
	s.InitFromPrim(sodInit)
	if _, err := s.Advance(0.123); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Time()-0.123) > 1e-12 {
		t.Errorf("t = %v, want 0.123", s.Time())
	}
	// Advancing to an earlier time is a no-op.
	steps, err := s.Advance(0.1)
	if err != nil || steps != 0 {
		t.Errorf("backward advance: steps=%d err=%v", steps, err)
	}
}

func TestStepRejectsBadDt(t *testing.T) {
	g := grid1D(16, 2)
	s, _ := New(g, DefaultConfig())
	s.InitFromPrim(sodInit)
	if err := s.Step(0); err == nil {
		t.Error("dt=0 accepted")
	}
	if err := s.Step(-1); err == nil {
		t.Error("dt<0 accepted")
	}
}

// All integrators must agree on a smooth problem to leading order.
func TestIntegratorsAgree(t *testing.T) {
	run := func(integ Integrator) float64 {
		g := grid.New(grid.Geometry{Nx: 64, Ny: 1, Nz: 1, Ng: 2, X0: 0, X1: 1})
		g.SetAllBCs(grid.Periodic)
		cfg := DefaultConfig()
		cfg.Integrator = integ
		cfg.CFL = 0.2
		s, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.InitFromPrim(func(x, _, _ float64) state.Prim {
			return state.Prim{Rho: 1 + 0.1*math.Sin(2*math.Pi*x), Vx: 0.2, P: 1}
		})
		if _, err := s.Advance(0.2); err != nil {
			t.Fatal(err)
		}
		return g.W.Comp[state.IRho][g.IBeg()+10]
	}
	r1, r2, r3 := run(RK1), run(RK2), run(RK3)
	if math.Abs(r2-r3) > 5e-4 {
		t.Errorf("RK2 and RK3 disagree: %v vs %v", r2, r3)
	}
	if math.Abs(r1-r2) > 5e-3 {
		t.Errorf("RK1 far from RK2: %v vs %v", r1, r2)
	}
}

// A uniform state must remain exactly uniform (well-balanced trivially):
// any drift reveals asymmetry in the sweeps.
func TestUniformStateStationary(t *testing.T) {
	g := grid.New(grid.Geometry{Nx: 16, Ny: 16, Nz: 4, Ng: 2,
		X0: 0, X1: 1, Y0: 0, Y1: 1, Z0: 0, Z1: 1})
	g.SetAllBCs(grid.Periodic)
	s, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.InitFromPrim(func(x, y, z float64) state.Prim {
		return state.Prim{Rho: 1.3, Vx: 0.2, Vy: -0.1, Vz: 0.05, P: 0.7}
	})
	for i := 0; i < 5; i++ {
		if err := s.Step(s.MaxDt()); err != nil {
			t.Fatal(err)
		}
	}
	g.ForEachInterior(func(idx, i, j, k int) {
		if math.Abs(g.W.Comp[state.IRho][idx]-1.3) > 1e-12 {
			t.Fatalf("uniform state drifted at %d: %v", idx, g.W.Comp[state.IRho][idx])
		}
	})
}

func TestIntegratorString(t *testing.T) {
	if RK1.String() != "rk1" || RK2.String() != "rk2" || RK3.String() != "rk3" {
		t.Error("integrator names wrong")
	}
	if RK3.Stages() != 3 {
		t.Error("stage count wrong")
	}
}
