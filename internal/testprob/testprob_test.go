package testprob

import (
	"math"
	"testing"

	"rhsc/internal/grid"
	"rhsc/internal/state"
)

// All returns every registered problem sorted by name.
func All() []*Problem {
	out := make([]*Problem, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"blast", "blast2d", "blast3d", "implosion2d", "jet2d", "kh2d", "rotor2d", "shock-heating", "smooth-wave", "sod"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("sod")
	if err != nil || p.Name != "sod" {
		t.Errorf("ByName(sod) = %v, %v", p, err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("unknown problem accepted")
	}
}

// Every problem's initial condition must be physical over its whole
// domain, and its metadata sane.
func TestAllProblemsPhysicalInit(t *testing.T) {
	for _, p := range All() {
		if p.Gamma <= 1 || p.Gamma > 2 {
			t.Errorf("%s: gamma %v", p.Name, p.Gamma)
		}
		if p.TEnd <= 0 {
			t.Errorf("%s: tEnd %v", p.Name, p.TEnd)
		}
		if p.Dim < 1 || p.Dim > 3 {
			t.Errorf("%s: dim %d", p.Name, p.Dim)
		}
		for i := 0; i <= 50; i++ {
			for j := 0; j <= 50; j++ {
				x := p.X0 + (p.X1-p.X0)*float64(i)/50
				y := p.Y0 + (p.Y1-p.Y0)*float64(j)/50
				w := p.Init(x, y, 0)
				if !w.IsPhysical() {
					t.Fatalf("%s: unphysical init %+v at (%v,%v)", p.Name, w, x, y)
				}
			}
		}
	}
}

func TestGeometryScaling(t *testing.T) {
	g := Sod.Geometry(128, 2)
	if g.Nx != 128 || g.Ny != 1 {
		t.Errorf("1D geometry %+v", g)
	}
	g2 := Blast2D.Geometry(64, 3)
	if g2.Nx != 64 || g2.Ny != 64 { // square domain
		t.Errorf("2D geometry %+v", g2)
	}
	if g2.Ng != 3 {
		t.Errorf("ghost width %d", g2.Ng)
	}
}

func TestBlast3DGeometry(t *testing.T) {
	g := Blast3D.Geometry(16, 2)
	if g.Nx != 16 || g.Ny != 16 || g.Nz != 16 {
		t.Errorf("3D geometry %+v", g)
	}
	if g.Z0 != -1 || g.Z1 != 1 {
		t.Errorf("z bounds %v %v", g.Z0, g.Z1)
	}
	gr := Blast3D.NewGrid(8, 2)
	if gr.Dim() != 3 {
		t.Errorf("grid dim %d", gr.Dim())
	}
}

func TestNewGridAppliesBCs(t *testing.T) {
	g := SmoothWave.NewGrid(32, 2)
	if g.BCs[0][0] != grid.Periodic || g.BCs[0][1] != grid.Periodic {
		t.Errorf("BCs = %v", g.BCs[0])
	}
	g2 := Sod.NewGrid(32, 2)
	if g2.BCs[0][0] != grid.Outflow {
		t.Errorf("sod BCs = %v", g2.BCs[0])
	}
}

// TestBlockGridFaceRule: a block's faces are the problem's (SetupGrid
// included) on the domain boundary and External where another block
// lies behind them, periodic wraps included.
func TestBlockGridFaceRule(t *testing.T) {
	const (
		E = grid.External
		O = grid.Outflow
		P = grid.Periodic
		C = grid.Custom
	)
	cases := []struct {
		p          *Problem
		pos, count [3]int
		want       [2][2]grid.BC // x then y faces, lower then upper
	}{
		{Jet2D, [3]int{0, 0}, [3]int{1, 1, 1}, [2][2]grid.BC{{C, O}, {O, O}}},
		{Jet2D, [3]int{0, 1}, [3]int{2, 3, 1}, [2][2]grid.BC{{C, E}, {E, E}}},
		{Jet2D, [3]int{1, 2}, [3]int{2, 3, 1}, [2][2]grid.BC{{E, O}, {E, O}}},
		{KelvinHelmholtz2D, [3]int{0, 0}, [3]int{1, 1, 1}, [2][2]grid.BC{{P, P}, {P, P}}},
		{KelvinHelmholtz2D, [3]int{0, 0}, [3]int{2, 1, 1}, [2][2]grid.BC{{E, E}, {P, P}}},
	}
	for _, tc := range cases {
		g := tc.p.BlockGrid(tc.p.Geometry(16, 2), tc.pos, tc.count)
		if got := [2][2]grid.BC{g.BCs[0], g.BCs[1]}; got != tc.want {
			t.Errorf("%s block %v of %v: faces %v, want %v", tc.p.Name, tc.pos, tc.count, got, tc.want)
		}
	}
	if g := Jet2D.NewGrid(16, 2); g.BCs[0][0] != C || g.CustomFill[0][0] == nil {
		t.Errorf("jet2d NewGrid x-lo = %v, want its Custom nozzle", g.BCs[0][0])
	}
}

func TestSmoothWaveExactSolution(t *testing.T) {
	// The exact solution at t=0 matches Init.
	for _, x := range []float64{0.1, 0.37, 0.92} {
		w := SmoothWave.Init(x, 0, 0)
		if math.Abs(w.Rho-SmoothWaveRho(x, 0)) > 1e-15 {
			t.Errorf("init/exact mismatch at %v", x)
		}
	}
	// Periodicity: rho(x, t) = rho(x + v*T, t + T).
	if math.Abs(SmoothWaveRho(0.3, 0)-SmoothWaveRho(0.3+SmoothWaveV*2, 2)) > 1e-12 {
		t.Error("exact solution not advecting periodically")
	}
	// Negative arguments wrap.
	if r := SmoothWaveRho(0, 1); math.IsNaN(r) || r <= 0 {
		t.Errorf("wrap failure: %v", r)
	}
}

// ShockHeatingSigma returns the exact post-shock compression ratio of the
// shock-heating problem for inflow Lorentz factor w and adiabatic index
// gamma: σ = ρ̄/ρ = (Γ+1)/(Γ−1) + Γ/(Γ−1)·(W−1).
func ShockHeatingSigma(w, gamma float64) float64 {
	return (gamma+1)/(gamma-1) + gamma/(gamma-1)*(w-1)
}

func TestShockHeatingSigma(t *testing.T) {
	// Newtonian limit W→1: sigma = (Γ+1)/(Γ−1) = 7 for Γ=4/3.
	if s := ShockHeatingSigma(1, 4.0/3.0); math.Abs(s-7) > 1e-12 {
		t.Errorf("sigma(W=1) = %v, want 7", s)
	}
	// W=10, Γ=4/3: 7 + 4*9 = 43.
	if s := ShockHeatingSigma(10, 4.0/3.0); math.Abs(s-43) > 1e-12 {
		t.Errorf("sigma(W=10) = %v, want 43", s)
	}
}

func TestKHShearStructure(t *testing.T) {
	p := KelvinHelmholtz2D
	// Velocities at band centres are ±vShear.
	up := p.Init(0, 0.25, 0)
	dn := p.Init(0, -0.25, 0)
	if math.Abs(up.Vx) > 0.01 || math.Abs(dn.Vx) > 0.01 {
		t.Errorf("band centres should be near the tanh zero: %v, %v", up.Vx, dn.Vx)
	}
	// Outer regions stream at +v, the inner band at −v: a genuine shear
	// layer at each of y = ±0.25.
	if v := p.Init(0, 0.4, 0).Vx; v < 0.2 {
		t.Errorf("outer velocity %v, want ~0.25", v)
	}
	if v := p.Init(0, -0.45, 0).Vx; v < 0.2 {
		t.Errorf("outer velocity %v, want ~0.25", v)
	}
	if v := p.Init(0, 0.1, 0).Vx; v > -0.2 {
		t.Errorf("inner band velocity %v, want ~-0.25", v)
	}
	if v := p.Init(0, -0.1, 0).Vx; v > -0.2 {
		t.Errorf("inner band velocity %v, want ~-0.25", v)
	}
	// Perturbation is antisymmetric between bands.
	a := p.Init(0.25, 0.25, 0).Vy
	b := p.Init(0.25, -0.25, 0).Vy
	if math.Abs(a+b) > 1e-12 {
		t.Errorf("perturbation not antisymmetric: %v, %v", a, b)
	}
}

func TestImplosionDiagonal(t *testing.T) {
	p := Implosion2D
	// The initial data is symmetric about the diagonal x=y.
	for _, pt := range [][2]float64{{0.05, 0.1}, {0.2, 0.25}, {0.01, 0.29}} {
		a := p.Init(pt[0], pt[1], 0)
		b := p.Init(pt[1], pt[0], 0)
		if a.Rho != b.Rho || a.P != b.P {
			t.Errorf("diagonal asymmetry at %v: %+v vs %+v", pt, a, b)
		}
	}
}

func TestBlast2DContrast(t *testing.T) {
	in := Blast2D.Init(0, 0, 0)
	out := Blast2D.Init(0.9, 0.9, 0)
	if in.P/out.P < 1e4 {
		t.Errorf("blast pressure contrast too small: %v / %v", in.P, out.P)
	}
}

func TestShockHeatingInflow(t *testing.T) {
	w := ShockHeating.Init(0.5, 0, 0)
	lorentz := 1 / math.Sqrt(1-w.Vx*w.Vx)
	if math.Abs(lorentz-10) > 1e-10 {
		t.Errorf("inflow W = %v, want 10", lorentz)
	}
	if w.Vx >= 0 {
		t.Error("inflow must move toward the left wall")
	}
}

func TestJetNozzleGeometry(t *testing.T) {
	g := Jet2D.NewGrid(64, 2)
	if g.BCs[0][0] != grid.Custom {
		t.Fatalf("inlet BC = %v", g.BCs[0][0])
	}
	if g.CustomFill[0][0] == nil {
		t.Fatal("no inflow hook installed")
	}
	// Fill primitives and check nozzle vs non-nozzle ghosts.
	g.ForEachInterior(func(idx, i, j, k int) {
		g.W.SetPrim(idx, Jet2D.Init(g.X(i), g.Y(j), 0))
	})
	g.ApplyBCs(g.W)
	foundBeam, foundAmb := false, false
	for j := g.JBeg(); j < g.JEnd(); j++ {
		p := g.W.GetPrim(g.Idx(0, j, g.KBeg()))
		if math.Abs(g.Y(j)) <= JetRadius {
			if p.Vx != JetVelocity || p.Rho != JetBeamRho {
				t.Fatalf("nozzle ghost at y=%v wrong: %+v", g.Y(j), p)
			}
			foundBeam = true
		} else {
			if p.Vx != 0 || p.Rho != JetAmbRho {
				t.Fatalf("non-nozzle ghost at y=%v wrong: %+v", g.Y(j), p)
			}
			foundAmb = true
		}
	}
	if !foundBeam || !foundAmb {
		t.Fatalf("nozzle structure missing: beam=%v ambient=%v", foundBeam, foundAmb)
	}
}

func TestRotorInit(t *testing.T) {
	p := Rotor2D
	// Rim speed 0.8, subluminal everywhere inside the disk.
	w := p.Init(0.0999, 0, 0)
	if v := math.Abs(w.Vy); math.Abs(v-0.7992) > 1e-3 {
		t.Errorf("rim speed %v, want ~0.8", v)
	}
	// Rotation is divergence-free solid body: v(x,y) = omega x r_hat_perp.
	a := p.Init(0.05, 0.05, 0)
	if math.Abs(a.Vx+a.Vy) > 1e-12 { // vx = -wy, vy = wx, x=y => vx=-vy
		t.Errorf("solid-body pattern broken: %+v", a)
	}
	// Ambient at rest.
	if out := p.Init(0.3, 0.3, 0); out.Vx != 0 || out.Vy != 0 || out.Rho != 1 {
		t.Errorf("ambient %+v", out)
	}
}

func TestJetBeamLorentz(t *testing.T) {
	w := JetBeam().Lorentz()
	if math.Abs(w-7.089) > 0.01 {
		t.Errorf("beam Lorentz factor = %v, want ~7.09", w)
	}
}

var _ = state.Prim{} // keep import when tests shrink
