// Package eos implements the equations of state used by the relativistic
// hydrodynamics solver.
//
// All quantities are in geometric units (c = 1). The thermodynamic state is
// parameterised by the rest-mass density ρ and either the specific internal
// energy ε or the pressure p. The specific enthalpy is h = 1 + ε + p/ρ and
// the relativistic sound speed satisfies c_s² = (∂p/∂e)_s evaluated for the
// particular closure.
//
// Three closures are provided:
//
//   - IdealGas: the Γ-law gas p = (Γ−1)ρε, the workhorse of HRSC test
//     problems (Sod tubes, blast waves).
//   - TaubMathews: the analytic approximation to the Synge relativistic
//     perfect gas with a variable effective adiabatic index between 5/3
//     (cold) and 4/3 (ultra-relativistic).
//   - Hybrid: a cold polytrope p_c = Kρ^Γc plus a thermal Γ-law part, the
//     compact-object closure.
package eos

import (
	"fmt"
	"math"
)

// EOS is the closure relation between (ρ, ε) and p needed by the solver.
// Implementations must be safe for concurrent use: the solver calls them
// from many goroutines.
type EOS interface {
	// Name identifies the closure in logs and output headers.
	Name() string
	// Pressure returns p(ρ, ε).
	Pressure(rho, eps float64) float64
	// Eps returns ε(ρ, p), the inverse of Pressure at fixed ρ.
	Eps(rho, p float64) float64
	// Enthalpy returns the specific enthalpy h = 1 + ε + p/ρ for the state
	// (ρ, p).
	Enthalpy(rho, p float64) float64
	// SoundSpeed2 returns the squared relativistic sound speed c_s²(ρ, p).
	// Implementations must guarantee 0 ≤ c_s² < 1 for admissible states.
	SoundSpeed2(rho, p float64) float64
}

// IdealGas is the Γ-law equation of state p = (Γ−1) ρ ε.
type IdealGas struct {
	// GammaAd is the adiabatic index Γ. Physically meaningful values lie in
	// (1, 2]; relativistic kinetic theory bounds causal ideal gases at 2.
	GammaAd float64
}

// NewIdealGas returns a Γ-law EOS, panicking on a non-physical index.
func NewIdealGas(gamma float64) IdealGas {
	if gamma <= 1 || gamma > 2 {
		panic(fmt.Sprintf("eos: ideal gas adiabatic index %v outside (1,2]", gamma))
	}
	return IdealGas{GammaAd: gamma}
}

// Name implements EOS.
func (g IdealGas) Name() string { return fmt.Sprintf("ideal-gamma-%.3g", g.GammaAd) }

// Pressure implements EOS: p = (Γ−1) ρ ε.
func (g IdealGas) Pressure(rho, eps float64) float64 {
	return (g.GammaAd - 1) * rho * eps
}

// Eps implements EOS: ε = p / ((Γ−1) ρ).
func (g IdealGas) Eps(rho, p float64) float64 {
	return p / ((g.GammaAd - 1) * rho)
}

// Enthalpy implements EOS: h = 1 + Γ/(Γ−1) · p/ρ.
func (g IdealGas) Enthalpy(rho, p float64) float64 {
	return 1 + g.GammaAd/(g.GammaAd-1)*p/rho
}

// SoundSpeed2 implements EOS: c_s² = Γ p / (ρ h).
func (g IdealGas) SoundSpeed2(rho, p float64) float64 {
	h := g.Enthalpy(rho, p)
	return g.GammaAd * p / (rho * h)
}

// TaubMathews is the analytic approximation to the Synge relativistic
// perfect gas (Mathews 1971; Mignone, Plewa & Bodo 2005). With θ = p/ρ the
// enthalpy is
//
//	h = (5/2) θ + sqrt((9/4) θ² + 1)
//
// which interpolates the effective adiabatic index smoothly from 5/3 in the
// cold limit to 4/3 in the ultra-relativistic limit while satisfying the
// Taub inequality everywhere.
type TaubMathews struct{}

// Name implements EOS.
func (TaubMathews) Name() string { return "taub-mathews" }

// Pressure implements EOS using the closed-form inversion
// θ = ε(ε+2) / (3(ε+1)), hence p = ρθ.
func (TaubMathews) Pressure(rho, eps float64) float64 {
	if eps <= 0 {
		return 0
	}
	theta := eps * (eps + 2) / (3 * (eps + 1))
	return rho * theta
}

// Eps implements EOS: ε = h − 1 − θ with h(θ) the TM enthalpy.
func (tm TaubMathews) Eps(rho, p float64) float64 {
	theta := p / rho
	return 1.5*theta + math.Sqrt(2.25*theta*theta+1) - 1
}

// Enthalpy implements EOS: h = (5/2)θ + sqrt((9/4)θ² + 1).
func (TaubMathews) Enthalpy(rho, p float64) float64 {
	theta := p / rho
	return 2.5*theta + math.Sqrt(2.25*theta*theta+1)
}

// SoundSpeed2 implements EOS:
//
//	c_s² = θ (5h − 8θ) / (3 h (h − θ))
//
// which limits to (5/3)θ as θ→0 and to 1/3 as θ→∞.
func (tm TaubMathews) SoundSpeed2(rho, p float64) float64 {
	theta := p / rho
	h := tm.Enthalpy(rho, p)
	return theta * (5*h - 8*theta) / (3 * h * (h - theta))
}

// Hybrid is the "cold polytrope + thermal Γ-law" equation of state used
// by compact-object hydrodynamics codes: the pressure is the sum of a
// barotropic cold part p_c = K ρ^Γc and a thermal part
// p_th = (Γth − 1) ρ (ε − ε_c(ρ)) with ε_c the cold specific energy.
// Shocks heat the gas into the thermal component while the cold part
// models the degenerate background.
type Hybrid struct {
	K       float64 // cold polytropic constant
	GammaC  float64 // cold polytropic exponent
	GammaTh float64 // thermal adiabatic index
}

// NewHybrid returns a hybrid EOS, panicking on non-physical parameters.
func NewHybrid(k, gammaC, gammaTh float64) Hybrid {
	if k <= 0 {
		panic("eos: hybrid cold constant must be positive")
	}
	if gammaC <= 1 || gammaTh <= 1 || gammaTh > 2 {
		panic("eos: hybrid exponents out of range")
	}
	return Hybrid{K: k, GammaC: gammaC, GammaTh: gammaTh}
}

// Name implements EOS.
func (h Hybrid) Name() string {
	return fmt.Sprintf("hybrid-K%.3g-gc%.3g-gth%.3g", h.K, h.GammaC, h.GammaTh)
}

// coldP returns the cold pressure K ρ^Γc.
func (h Hybrid) coldP(rho float64) float64 { return h.K * math.Pow(rho, h.GammaC) }

// coldEps returns the cold specific internal energy along the polytrope:
// ε_c = K ρ^{Γc−1}/(Γc − 1).
func (h Hybrid) coldEps(rho float64) float64 {
	return h.K * math.Pow(rho, h.GammaC-1) / (h.GammaC - 1)
}

// Pressure implements EOS: p = p_c + (Γth − 1) ρ (ε − ε_c), with the
// thermal part floored at zero (ε below the cold curve is clipped).
func (h Hybrid) Pressure(rho, eps float64) float64 {
	th := (h.GammaTh - 1) * rho * (eps - h.coldEps(rho))
	if th < 0 {
		th = 0
	}
	return h.coldP(rho) + th
}

// Eps implements EOS: ε = ε_c + (p − p_c)/((Γth − 1) ρ).
func (h Hybrid) Eps(rho, p float64) float64 {
	th := p - h.coldP(rho)
	if th < 0 {
		th = 0
	}
	return h.coldEps(rho) + th/((h.GammaTh-1)*rho)
}

// Enthalpy implements EOS: h = 1 + ε + p/ρ.
func (h Hybrid) Enthalpy(rho, p float64) float64 {
	return 1 + h.Eps(rho, p) + p/rho
}

// SoundSpeed2 implements EOS: the standard hybrid expression
//
//	c_s² = [Γc p_c + Γth p_th] / (ρ h)
//
// clamped into [0, 1).
func (h Hybrid) SoundSpeed2(rho, p float64) float64 {
	pc := h.coldP(rho)
	pth := p - pc
	if pth < 0 {
		pth = 0
		pc = p
	}
	c := (h.GammaC*pc + h.GammaTh*pth) / (rho * h.Enthalpy(rho, p))
	if c < 0 {
		return 0
	}
	if c >= 1 {
		return 1 - 1e-12
	}
	return c
}
