package state

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rhsc/internal/eos"
)

var gamma53 = eos.NewIdealGas(5.0 / 3.0)

// The per-state flux and wave-speed formulas the row kernels inline
// (internal/riemann, internal/core) — the oracles of the tests below.

// Flux returns the flux vector along direction d for a cell whose primitive
// and conserved states are (p, c):
//
//	F(D)   = D v_d
//	F(S_i) = S_i v_d + p δ_{id}
//	F(τ)   = S_d − D v_d
func Flux(p Prim, c Cons, d Direction) Cons {
	vd := p.V(d)
	f := Cons{
		D:   c.D * vd,
		Sx:  c.Sx * vd,
		Sy:  c.Sy * vd,
		Sz:  c.Sz * vd,
		Tau: c.S(d) - c.D*vd,
	}
	switch d {
	case X:
		f.Sx += p.P
	case Y:
		f.Sy += p.P
	default:
		f.Sz += p.P
	}
	return f
}

// WaveSpeeds returns the smallest and largest characteristic speeds (λ−, λ+)
// of the SRHD system along direction d:
//
//	λ± = [ v_d (1−c_s²) ± c_s sqrt( (1−v²)(1 − v²c_s² − v_d²(1−c_s²)) ) ]
//	     / (1 − v² c_s²)
//
// Both are guaranteed to lie in (−1, 1) for admissible states.
func WaveSpeeds(e eos.EOS, p Prim, d Direction) (lm, lp float64) {
	return SignalSpeeds(e.SoundSpeed2(p.Rho, p.P), p.VSq(), p.V(d))
}

// MaxAbsSpeed returns max(|λ−|, |λ+|) along direction d — the CFL speed.
// The builtin max inlines (math.Max is a call) and differs from it only on
// an (±Inf, NaN) pair, which finite wave speeds never form.
func MaxAbsSpeed(e eos.EOS, p Prim, d Direction) float64 {
	lm, lp := WaveSpeeds(e, p, d)
	return max(math.Abs(lm), math.Abs(lp))
}

func randomPrim(rng *rand.Rand) Prim {
	// Log-uniform density/pressure, velocity up to W ~ 22.
	v := 0.999 * rng.Float64()
	theta := rng.Float64() * math.Pi
	phi := rng.Float64() * 2 * math.Pi
	return Prim{
		Rho: math.Exp(rng.Float64()*8 - 4),
		Vx:  v * math.Sin(theta) * math.Cos(phi),
		Vy:  v * math.Sin(theta) * math.Sin(phi),
		Vz:  v * math.Cos(theta),
		P:   math.Exp(rng.Float64()*8 - 4),
	}
}

func TestLorentzFactor(t *testing.T) {
	p := Prim{Rho: 1, Vx: 0.6, P: 1}
	if w := p.Lorentz(); math.Abs(w-1.25) > 1e-14 {
		t.Errorf("W = %v, want 1.25", w)
	}
	rest := Prim{Rho: 1, P: 1}
	if w := rest.Lorentz(); w != 1 {
		t.Errorf("rest frame W = %v", w)
	}
}

func TestLorentzPanicsSuperluminal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for v >= 1")
		}
	}()
	Prim{Rho: 1, Vx: 1.0, P: 1}.Lorentz()
}

func TestPrimToConsKnown(t *testing.T) {
	// v = 0: D = rho, S = 0, tau = rho*eps (ideal gas).
	p := Prim{Rho: 2, P: 0.8}
	c := p.ToCons(gamma53)
	if math.Abs(c.D-2) > 1e-14 {
		t.Errorf("D = %v, want 2", c.D)
	}
	if c.Sx != 0 || c.Sy != 0 || c.Sz != 0 {
		t.Errorf("S = (%v,%v,%v), want 0", c.Sx, c.Sy, c.Sz)
	}
	// tau = rho*h - p - rho with h = 1 + (5/3)/(2/3)*p/rho = 1 + 2.5*0.4 = 2.
	// tau = 2*2 - 0.8 - 2 = 1.2. Also equals rho*eps = 2 * p/((g-1)rho) = 1.2.
	if math.Abs(c.Tau-1.2) > 1e-14 {
		t.Errorf("Tau = %v, want 1.2", c.Tau)
	}
}

// Admissibility of conserved states built from physical primitives:
// D > 0, tau > 0, and the exact kinematic identity S = (tau + D + p) v,
// which implies the causality bound |S| < tau + D + p.
func TestConsAdmissibility(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		p := randomPrim(rng)
		c := p.ToCons(gamma53)
		if !(c.D > 0) {
			t.Fatalf("D = %v for %+v", c.D, p)
		}
		if c.Tau <= 0 {
			t.Fatalf("tau = %v for %+v", c.Tau, p)
		}
		ep := c.Tau + c.D + p.P
		wantS := math.Sqrt(p.VSq()) * ep
		if gotS := math.Sqrt(c.SSq()); math.Abs(gotS-wantS) > 1e-9*(1+wantS) {
			t.Fatalf("|S| = %v, want (tau+D+p)|v| = %v for %+v", gotS, wantS, p)
		}
		if c.SSq() >= ep*ep {
			t.Fatalf("causality bound violated: |S| >= tau+D+p for %+v", p)
		}
	}
}

func TestFluxRestFrame(t *testing.T) {
	// At rest the only nonzero flux is the pressure in the momentum slot.
	p := Prim{Rho: 1.5, P: 0.7}
	c := p.ToCons(gamma53)
	for _, d := range []Direction{X, Y, Z} {
		f := Flux(p, c, d)
		if f.D != 0 || f.Tau != 0 {
			t.Errorf("dir %v: F.D=%v F.Tau=%v, want 0", d, f.D, f.Tau)
		}
		want := [3]float64{}
		want[int(d)] = 0.7
		if f.Sx != want[0] || f.Sy != want[1] || f.Sz != want[2] {
			t.Errorf("dir %v: F.S = (%v,%v,%v)", d, f.Sx, f.Sy, f.Sz)
		}
	}
}

// The tau flux identity F(tau) = (tau + p) v_d must hold because
// S_d = (tau + D + p) v_d.
func TestTauFluxIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		p := randomPrim(rng)
		c := p.ToCons(gamma53)
		for _, d := range []Direction{X, Y, Z} {
			f := Flux(p, c, d)
			want := (c.Tau + p.P) * p.V(d)
			if math.Abs(f.Tau-want) > 1e-10*(1+math.Abs(want)) {
				t.Fatalf("F(tau) = %v, want %v", f.Tau, want)
			}
		}
	}
}

// Rotational covariance: rotating the state by 90 degrees about z must
// permute the flux components accordingly.
func TestFluxRotationalCovariance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		p := randomPrim(rng)
		c := p.ToCons(gamma53)
		fx := Flux(p, c, X)
		// Rotate: (vx,vy) -> (-vy, vx).
		pr := Prim{Rho: p.Rho, Vx: -p.Vy, Vy: p.Vx, Vz: p.Vz, P: p.P}
		cr := pr.ToCons(gamma53)
		fy := Flux(pr, cr, Y)
		// F_y(rotated) must equal rotation of F_x(original):
		// D, tau unchanged; (Sx,Sy) -> (-Sy, Sx).
		if math.Abs(fy.D-fx.D) > 1e-10*(1+math.Abs(fx.D)) {
			t.Fatalf("D flux not covariant: %v vs %v", fy.D, fx.D)
		}
		if math.Abs(fy.Tau-fx.Tau) > 1e-10*(1+math.Abs(fx.Tau)) {
			t.Fatalf("tau flux not covariant: %v vs %v", fy.Tau, fx.Tau)
		}
		if math.Abs(fy.Sx+fx.Sy) > 1e-9*(1+math.Abs(fx.Sy)) ||
			math.Abs(fy.Sy-fx.Sx) > 1e-9*(1+math.Abs(fx.Sx)) {
			t.Fatalf("S flux not covariant: got (%v,%v), want (%v,%v)",
				fy.Sx, fy.Sy, -fx.Sy, fx.Sx)
		}
	}
}

// Wave speeds must be causal, ordered, and bracket the flow speed.
func TestWaveSpeedsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		p := randomPrim(rng)
		for _, d := range []Direction{X, Y, Z} {
			lm, lp := WaveSpeeds(gamma53, p, d)
			if !(lm <= lp) {
				t.Fatalf("unordered speeds %v > %v", lm, lp)
			}
			if lm <= -1 || lp >= 1 {
				t.Fatalf("acausal speeds (%v, %v) for %+v", lm, lp, p)
			}
			vd := p.V(d)
			if vd < lm-1e-12 || vd > lp+1e-12 {
				t.Fatalf("flow speed %v outside [%v, %v]", vd, lm, lp)
			}
		}
	}
}

func TestWaveSpeedsRestFrame(t *testing.T) {
	// At rest: lambda_pm = -+ cs.
	p := Prim{Rho: 1, P: 1}
	cs := math.Sqrt(gamma53.SoundSpeed2(1, 1))
	lm, lp := WaveSpeeds(gamma53, p, X)
	if math.Abs(lm+cs) > 1e-14 || math.Abs(lp-cs) > 1e-14 {
		t.Errorf("rest speeds (%v, %v), want (-+%v)", lm, lp, cs)
	}
}

func TestWaveSpeeds1DKnown(t *testing.T) {
	// Pure 1-D flow: lambda_pm = (v +- cs)/(1 +- v cs).
	p := Prim{Rho: 1, Vx: 0.5, P: 0.1}
	cs := math.Sqrt(gamma53.SoundSpeed2(p.Rho, p.P))
	wantM := (0.5 - cs) / (1 - 0.5*cs)
	wantP := (0.5 + cs) / (1 + 0.5*cs)
	lm, lp := WaveSpeeds(gamma53, p, X)
	if math.Abs(lm-wantM) > 1e-12 || math.Abs(lp-wantP) > 1e-12 {
		t.Errorf("1D speeds (%v,%v), want (%v,%v)", lm, lp, wantM, wantP)
	}
}

func TestMaxAbsSpeed(t *testing.T) {
	p := Prim{Rho: 1, Vx: 0.9, P: 0.01}
	m := MaxAbsSpeed(gamma53, p, X)
	_, lp := WaveSpeeds(gamma53, p, X)
	if m != lp {
		t.Errorf("MaxAbsSpeed = %v, want %v", m, lp)
	}
}

func TestDirectionString(t *testing.T) {
	if X.String() != "x" || Y.String() != "y" || Z.String() != "z" {
		t.Error("direction names wrong")
	}
	if Direction(9).String() == "" {
		t.Error("unknown direction should still print")
	}
}

func TestFieldsRoundTrip(t *testing.T) {
	f := NewFields(10)
	c := Cons{D: 1, Sx: 2, Sy: 3, Sz: 4, Tau: 5}
	f.SetCons(7, c)
	if got := f.GetCons(7); got != c {
		t.Errorf("GetCons = %+v", got)
	}
	p := Prim{Rho: 1, Vx: 0.1, Vy: 0.2, Vz: 0.3, P: 2}
	f.SetPrim(3, p)
	if got := f.GetPrim(3); got != p {
		t.Errorf("GetPrim = %+v", got)
	}
}

func TestFieldsCloneIndependent(t *testing.T) {
	f := NewFields(4)
	f.Comp[ID][0] = 42
	g := f.Clone()
	g.Comp[ID][0] = 7
	if f.Comp[ID][0] != 42 {
		t.Error("Clone aliases original")
	}
}

func TestFieldsAXPY(t *testing.T) {
	f := NewFields(3)
	g := NewFields(3)
	for c := 0; c < NComp; c++ {
		for i := 0; i < 3; i++ {
			f.Comp[c][i] = float64(c + i)
			g.Comp[c][i] = 1
		}
	}
	f.AXPY(2, g)
	if f.Comp[1][2] != 1+2+2 {
		t.Errorf("AXPY wrong: %v", f.Comp[1][2])
	}
}

func TestFieldsLinComb2(t *testing.T) {
	u, v, f := NewFields(2), NewFields(2), NewFields(2)
	u.Comp[0][0] = 3
	v.Comp[0][0] = 5
	f.LinComb2(0.25, u, 0.75, v)
	if got := f.Comp[0][0]; math.Abs(got-4.5) > 1e-15 {
		t.Errorf("LinComb2 = %v, want 4.5", got)
	}
}

func TestFieldsSizeMismatchPanics(t *testing.T) {
	f, g := NewFields(2), NewFields(3)
	for _, fn := range []func(){
		func() { f.AXPY(1, g) },
		func() { f.CopyFrom(g) },
		func() { f.LinComb2(1, g, 1, g) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected size-mismatch panic")
				}
			}()
			fn()
		}()
	}
}

func TestIsPhysical(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	cases := []struct {
		p    Prim
		want bool
	}{
		{Prim{Rho: 1, P: 1}, true},
		{Prim{Rho: 1e-300, P: 1e-300, Vx: 0.6, Vy: 0.6, Vz: 0.5}, true},
		{Prim{Rho: inf, P: 1}, true},
		{Prim{Rho: 1, P: inf}, true},
		{Prim{Rho: -1, P: 1}, false},
		{Prim{Rho: 1, P: -1}, false},
		{Prim{Rho: 0, P: 1}, false},
		{Prim{Rho: negZero, P: 1}, false},
		{Prim{Rho: 1, P: negZero}, false},
		{Prim{Rho: -inf, P: 1}, false},
		{Prim{Rho: 1, P: -inf}, false},
		{Prim{Rho: 1, P: 1, Vx: 1.2}, false},
		{Prim{Rho: 1, P: 1, Vx: 1}, false},            // v² = 1 exactly
		{Prim{Rho: 1, P: 1, Vx: 0.6, Vy: 0.8}, false}, // v² rounds to 1
		{Prim{Rho: 1, P: 1, Vz: inf}, false},
		{Prim{Rho: 1, P: 1, Vy: -inf}, false},
		{Prim{Rho: nan, P: 1}, false},
		{Prim{Rho: 1, P: nan}, false},
		{Prim{Rho: 1, P: 1, Vx: nan}, false},
		{Prim{Rho: 1, P: 1, Vz: nan}, false},
	}
	for _, c := range cases {
		if got := c.p.IsPhysical(); got != c.want {
			t.Errorf("%+v: IsPhysical = %v, want %v", c.p, got, c.want)
		}
		// The verdict the explicit NaN tests gave before they were folded
		// into the comparisons.
		old := c.p.Rho > 0 && c.p.P > 0 && c.p.VSq() < 1 && !math.IsNaN(c.p.Rho) && !math.IsNaN(c.p.P)
		if old != c.want {
			t.Errorf("%+v: explicit-NaN form = %v, want %v", c.p, old, c.want)
		}
	}
}

// Newtonian limit: for v << 1 and p << rho, the conserved variables must
// approach their Newtonian counterparts.
func TestNewtonianLimit(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rho := 1 + rng.Float64()
		v := 1e-5 * rng.Float64()
		p := 1e-10 * (1 + rng.Float64())
		pr := Prim{Rho: rho, Vx: v, P: p}
		c := pr.ToCons(gamma53)
		// D ~ rho, Sx ~ rho v, tau ~ rho v^2/2 + p/(g-1).
		if math.Abs(c.D-rho)/rho > 1e-9 {
			return false
		}
		if math.Abs(c.Sx-rho*v) > 1e-8*rho*v+1e-18 {
			return false
		}
		wantTau := 0.5*rho*v*v + p/(2.0/3.0)
		return math.Abs(c.Tau-wantTau) < 1e-6*wantTau+1e-15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
