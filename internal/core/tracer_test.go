package core

import (
	"math"
	"strings"
	"testing"

	"rhsc/internal/grid"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// A tracer step profile in uniform flow must advect at the flow speed,
// stay in [0, 1], and conserve its total.
func TestTracerAdvection(t *testing.T) {
	g := grid.New(grid.Geometry{Nx: 256, Ny: 1, Nz: 1, Ng: 2, X0: 0, X1: 1})
	g.SetAllBCs(grid.Periodic)
	s, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const v0 = 0.5
	s.InitFromPrim(func(x, _, _ float64) state.Prim {
		return state.Prim{Rho: 1, Vx: v0, P: 1}
	})
	xProfile := func(x float64) float64 {
		if x > 0.2 && x < 0.4 {
			return 1
		}
		return 0
	}
	if err := s.EnableTracer(func(x, _, _ float64) float64 { return xProfile(x) }); err != nil {
		t.Fatal(err)
	}
	tot0 := tracerTotal(s)

	const tEnd = 0.4 // pulse centre moves from 0.3 to 0.5
	if _, err := s.Advance(tEnd); err != nil {
		t.Fatal(err)
	}

	if rel := math.Abs(tracerTotal(s)-tot0) / tot0; rel > 1e-12 {
		t.Errorf("tracer total drift %v", rel)
	}
	// Boundedness (donor-cell upwinding is monotone).
	com, mass := 0.0, 0.0
	for i := g.IBeg(); i < g.IEnd(); i++ {
		x := s.Tracer(i)
		if x < -1e-12 || x > 1+1e-12 {
			t.Fatalf("tracer out of bounds at %d: %v", i, x)
		}
		com += g.X(i) * x
		mass += x
	}
	// Centre of mass advects to 0.3 + v0*tEnd = 0.5.
	if got := com / mass; math.Abs(got-0.5) > 0.01 {
		t.Errorf("tracer centre of mass %v, want 0.5", got)
	}
	// The pulse edges stay reasonably sharp and in the right place.
	if v := s.Tracer(g.IBeg() + 128); v < 0.9 { // x = 0.5, pulse centre
		t.Errorf("tracer plateau too diffused: %v", v)
	}
	if v := s.Tracer(g.IBeg() + 25); v > 0.05 { // x = 0.1, upstream
		t.Errorf("tracer leaked upstream: %v", v)
	}
}

// Through a shock tube the tracer interface must track the *contact*
// discontinuity (material surface), not the shock.
func TestTracerTracksContact(t *testing.T) {
	p := testprob.Sod
	g := p.NewGrid(400, 2)
	s, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.InitFromPrim(p.Init)
	if err := s.EnableTracer(func(x, _, _ float64) float64 {
		if x < 0.5 {
			return 1
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	const tEnd = 0.3
	if _, err := s.Advance(tEnd); err != nil {
		t.Fatal(err)
	}
	// Exact contact speed for MM Problem 1: v* ~ 0.714.
	wantContact := 0.5 + 0.714*tEnd
	// Locate the tracer half-level crossing.
	cross := 0.0
	for i := g.IBeg() + 1; i < g.IEnd(); i++ {
		if s.Tracer(i-1) >= 0.5 && s.Tracer(i) < 0.5 {
			cross = g.X(i)
			break
		}
	}
	if math.Abs(cross-wantContact) > 0.02 {
		t.Errorf("tracer interface at %v, contact at %v", cross, wantContact)
	}
	// The shock is well ahead of the tracer interface: no tracer leakage
	// past the contact toward the shock (beyond smearing).
	shock := 0.5 + 0.828*tEnd
	iShock := g.IBeg() + int((shock+0.02)/g.Dx)
	if iShock < g.IEnd() && s.Tracer(iShock) > 0.05 {
		t.Errorf("tracer leaked past the contact to the shock: %v", s.Tracer(iShock))
	}
}

// Config.Fused selects nothing (every configuration runs the one flux
// kernel), so the tracer, which rides the kernel's mass flux, must not see
// the flag either.
func TestTracerFusedIdentical(t *testing.T) {
	run := func(fused bool) []float64 {
		p := testprob.Blast2D
		g := p.NewGrid(32, 2)
		cfg := DefaultConfig()
		cfg.Fused = fused
		s, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.InitFromPrim(p.Init)
		if err := s.EnableTracer(func(x, y, _ float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := s.Step(s.MaxDt()); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]float64, len(s.trc.cons))
		copy(out, s.trc.cons)
		return out
	}
	a := run(false)
	b := run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tracer differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// RK integrators all advect the tracer consistently.
func TestTracerIntegrators(t *testing.T) {
	for _, integ := range []Integrator{RK1, RK2, RK3} {
		g := grid.New(grid.Geometry{Nx: 64, Ny: 1, Nz: 1, Ng: 3, X0: 0, X1: 1})
		g.SetAllBCs(grid.Periodic)
		cfg := DefaultConfig()
		cfg.Integrator = integ
		s, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.InitFromPrim(func(x, _, _ float64) state.Prim {
			return state.Prim{Rho: 1, Vx: 0.3, P: 1}
		})
		if err := s.EnableTracer(func(x, _, _ float64) float64 {
			return 0.5 + 0.5*math.Sin(2*math.Pi*x)
		}); err != nil {
			t.Fatal(err)
		}
		tot0 := tracerTotal(s)
		if _, err := s.Advance(0.2); err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(tracerTotal(s)-tot0) / tot0; rel > 1e-12 {
			t.Errorf("%v: tracer drift %v", integ, rel)
		}
	}
}

// EnableTracer must reject distributed drivers.
func TestTracerRejectsHaloExchange(t *testing.T) {
	g := grid.New(grid.Geometry{Nx: 32, Ny: 1, Nz: 1, Ng: 2, X0: 0, X1: 1})
	g.SetAllBCs(grid.Outflow)
	cfg := DefaultConfig()
	cfg.HaloExchange = func(*state.Fields) {}
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.InitFromPrim(func(x, _, _ float64) state.Prim { return state.Prim{Rho: 1, P: 1} })
	if err := s.EnableTracer(func(x, _, _ float64) float64 { return 1 }); err == nil {
		t.Error("tracer accepted with HaloExchange")
	}
}

// EnableTracer must reject a Custom face (an inflow hook fills Fields
// only, never the tracer) and name it; jet2d's nozzle is one.
func TestTracerRejectsCustomFace(t *testing.T) {
	p := testprob.Jet2D
	s, err := New(p.NewGrid(32, 2), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitFromPrim(p.Init); err != nil {
		t.Fatal(err)
	}
	err = s.EnableTracer(func(x, _, _ float64) float64 { return 1 })
	if err == nil || !strings.Contains(err.Error(), "x-lo") {
		t.Fatalf("EnableTracer on jet2d = %v, want an error naming the x-lo face", err)
	}
	if s.trc != nil {
		t.Error("rejected tracer left enabled")
	}
}

// Disabled tracer accessors return zeros.
func TestTracerDisabled(t *testing.T) {
	g := grid.New(grid.Geometry{Nx: 16, Ny: 1, Nz: 1, Ng: 2, X0: 0, X1: 1})
	g.SetAllBCs(grid.Outflow)
	s, _ := New(g, DefaultConfig())
	if s.Tracer(0) != 0 || tracerTotal(s) != 0 {
		t.Error("disabled tracer not zero")
	}
}

// tracerTotal returns Σ D_X dV — conserved alongside the rest mass.
func tracerTotal(s *Solver) float64 {
	if s.trc == nil {
		return 0
	}
	sum := 0.0
	s.G.ForEachInterior(func(idx, _, _, _ int) {
		sum += s.trc.cons[idx]
	})
	return sum * s.G.CellVolume()
}
