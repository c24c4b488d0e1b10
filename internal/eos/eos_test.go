package eos

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdealGasRoundTrip(t *testing.T) {
	g := NewIdealGas(5.0 / 3.0)
	rho, eps := 1.3, 0.42
	p := g.Pressure(rho, eps)
	if got := g.Eps(rho, p); math.Abs(got-eps) > 1e-14 {
		t.Errorf("Eps(Pressure) = %v, want %v", got, eps)
	}
}

func TestIdealGasKnownValues(t *testing.T) {
	g := NewIdealGas(1.4)
	// p = 0.4 * 1 * 2.5 = 1.
	if p := g.Pressure(1, 2.5); math.Abs(p-1) > 1e-14 {
		t.Errorf("Pressure = %v, want 1", p)
	}
	// h = 1 + 1.4/0.4 * 1 = 4.5.
	if h := g.Enthalpy(1, 1); math.Abs(h-4.5) > 1e-14 {
		t.Errorf("Enthalpy = %v, want 4.5", h)
	}
	// cs2 = 1.4*1/(1*4.5).
	if c := g.SoundSpeed2(1, 1); math.Abs(c-1.4/4.5) > 1e-14 {
		t.Errorf("SoundSpeed2 = %v", c)
	}
}

func TestIdealGasPanicsOnBadGamma(t *testing.T) {
	for _, gamma := range []float64{1.0, 0.5, 2.5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("gamma=%v should panic", gamma)
				}
			}()
			NewIdealGas(gamma)
		}()
	}
}

// Causality: the sound speed of every closure must satisfy 0 <= cs2 < 1 for
// random admissible states.
func TestSoundSpeedCausality(t *testing.T) {
	closures := []EOS{
		NewIdealGas(4.0 / 3.0),
		NewIdealGas(5.0 / 3.0),
		NewIdealGas(2.0),
		TaubMathews{},
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range closures {
		for i := 0; i < 2000; i++ {
			rho := math.Exp(rng.Float64()*20 - 10) // 4.5e-5 .. 2.2e4
			p := math.Exp(rng.Float64()*20 - 10)
			cs2 := c.SoundSpeed2(rho, p)
			if cs2 < 0 || cs2 >= 1 || math.IsNaN(cs2) {
				t.Fatalf("%s: cs2 = %v at rho=%v p=%v", c.Name(), cs2, rho, p)
			}
		}
	}
}

// Thermodynamic consistency: h = 1 + eps + p/rho must hold for Pressure/Eps
// round trips of every closure.
func TestEnthalpyConsistency(t *testing.T) {
	closures := []EOS{NewIdealGas(5.0 / 3.0), TaubMathews{}}
	rng := rand.New(rand.NewSource(11))
	for _, c := range closures {
		for i := 0; i < 500; i++ {
			rho := math.Exp(rng.Float64()*8 - 4)
			p := math.Exp(rng.Float64()*8 - 4)
			eps := c.Eps(rho, p)
			want := 1 + eps + p/rho
			if h := c.Enthalpy(rho, p); math.Abs(h-want)/want > 1e-10 {
				t.Fatalf("%s: h = %v, want %v (rho=%v p=%v)", c.Name(), h, want, rho, p)
			}
		}
	}
}

func TestTaubMathewsRoundTrip(t *testing.T) {
	tm := TaubMathews{}
	prop := func(lr, lp float64) bool {
		rho := math.Exp(math.Mod(lr, 8))
		p := math.Exp(math.Mod(lp, 8))
		eps := tm.Eps(rho, p)
		if eps <= 0 {
			return false
		}
		p2 := tm.Pressure(rho, eps)
		return math.Abs(p2-p)/p < 1e-10
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTaubMathewsLimits(t *testing.T) {
	tm := TaubMathews{}
	// The effective adiabatic index Γ_eff = 1 + p/(ρε).
	effectiveGamma := func(rho, p float64) float64 { return 1 + (p/rho)/tm.Eps(rho, p) }
	// Cold limit: Gamma_eff -> 5/3, cs2 -> (5/3) p/rho.
	rho, p := 1.0, 1e-8
	if g := effectiveGamma(rho, p); math.Abs(g-5.0/3.0) > 1e-3 {
		t.Errorf("cold EffectiveGamma = %v, want 5/3", g)
	}
	if c := tm.SoundSpeed2(rho, p); math.Abs(c-(5.0/3.0)*p/rho)/((5.0/3.0)*p/rho) > 1e-3 {
		t.Errorf("cold cs2 = %v, want %v", c, (5.0/3.0)*p/rho)
	}
	// Hot limit: Gamma_eff -> 4/3, cs2 -> 1/3.
	p = 1e8
	if g := effectiveGamma(rho, p); math.Abs(g-4.0/3.0) > 1e-3 {
		t.Errorf("hot EffectiveGamma = %v, want 4/3", g)
	}
	if c := tm.SoundSpeed2(rho, p); math.Abs(c-1.0/3.0) > 1e-3 {
		t.Errorf("hot cs2 = %v, want 1/3", c)
	}
}

// The Taub inequality (h - theta)(h) >= 1 + eps... the fundamental kinetic
// constraint is (h - theta)^2 >= 1 + theta^2 ... Taub: h(h - theta) >= 1? The
// standard statement for a relativistic gas: (h − θ)(h − 4θ) ≤ 1 with
// equality for Synge; TM satisfies (h − (5/2)θ)² = (9/4)θ² + 1, i.e.
// h² − 5hθ + 4θ² = 1 exactly. Verify that identity.
func TestTaubMathewsIdentity(t *testing.T) {
	tm := TaubMathews{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		rho := math.Exp(rng.Float64()*10 - 5)
		p := math.Exp(rng.Float64()*10 - 5)
		theta := p / rho
		h := tm.Enthalpy(rho, p)
		lhs := (h - theta) * (h - 4*theta)
		if math.Abs(lhs-1) > 1e-9*(1+h*h) {
			t.Fatalf("TM identity violated: (h-θ)(h-4θ) = %v at θ=%v", lhs, theta)
		}
	}
}

func TestHybridColdLimit(t *testing.T) {
	h := NewHybrid(1, 2, 5.0/3.0)
	// Exactly on the cold curve, pressure reduces to the polytrope.
	rho := 0.7
	eps := h.coldEps(rho)
	if p := h.Pressure(rho, eps); math.Abs(p-h.coldP(rho)) > 1e-14 {
		t.Errorf("cold pressure %v, want %v", p, h.coldP(rho))
	}
	// Below the cold curve the thermal part is clipped, never negative.
	if p := h.Pressure(rho, eps/2); p < h.coldP(rho)-1e-14 {
		t.Errorf("pressure %v below cold curve", p)
	}
}

func TestHybridRoundTrip(t *testing.T) {
	h := NewHybrid(0.5, 2, 5.0/3.0)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		rho := math.Exp(rng.Float64()*6 - 3)
		// Hot states: eps above the cold curve.
		eps := h.coldEps(rho) * (1 + rng.Float64()*5)
		p := h.Pressure(rho, eps)
		if got := h.Eps(rho, p); math.Abs(got-eps)/eps > 1e-12 {
			t.Fatalf("round trip: eps %v -> %v (rho=%v)", eps, got, rho)
		}
	}
}

func TestHybridCausality(t *testing.T) {
	h := NewHybrid(1, 2, 5.0/3.0)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		rho := math.Exp(rng.Float64()*16 - 8)
		p := math.Exp(rng.Float64()*16 - 8)
		cs2 := h.SoundSpeed2(rho, p)
		if cs2 < 0 || cs2 >= 1 || math.IsNaN(cs2) {
			t.Fatalf("cs2 = %v at rho=%v p=%v", cs2, rho, p)
		}
		want := 1 + h.Eps(rho, p) + p/rho
		if got := h.Enthalpy(rho, p); math.Abs(got-want)/want > 1e-12 {
			t.Fatalf("enthalpy inconsistent: %v vs %v", got, want)
		}
	}
}

func TestHybridThermalDominatedMatchesIdeal(t *testing.T) {
	// With a tiny cold constant the hybrid reduces to the thermal Γ-law.
	h := NewHybrid(1e-12, 2, 5.0/3.0)
	g := NewIdealGas(5.0 / 3.0)
	rho, eps := 1.0, 2.0
	ph, pg := h.Pressure(rho, eps), g.Pressure(rho, eps)
	if math.Abs(ph-pg)/pg > 1e-9 {
		t.Errorf("thermal-dominated hybrid %v vs ideal %v", ph, pg)
	}
}

func TestHybridPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHybrid(0, 2, 1.5) },
		func() { NewHybrid(1, 1, 1.5) },
		func() { NewHybrid(1, 2, 2.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestEOSNames(t *testing.T) {
	if NewIdealGas(5.0/3.0).Name() == "" || (TaubMathews{}).Name() == "" {
		t.Error("empty EOS name")
	}
	if NewHybrid(1, 2, 5.0/3.0).Name() == "" {
		t.Error("empty hybrid name")
	}
}
