// Package exact implements the exact Riemann solver for one-dimensional
// special relativistic hydrodynamics with an ideal-gas equation of state
// and vanishing transverse velocities, following Martí & Müller (J. Fluid
// Mech. 258, 1994; Living Reviews in Relativity, 2003).
//
// The solution of the Riemann problem consists of a left-going wave (shock
// or rarefaction), a contact discontinuity, and a right-going wave. The
// solver finds the star pressure p* at which the flow velocities behind the
// two outer waves agree, then samples the self-similar solution at any
// ξ = x/t. It provides the reference profiles and L1 errors for the
// validation experiments (E1, E2).
package exact

import (
	"errors"
	"fmt"
	"math"
)

// State is a 1-D primitive hydrodynamic state.
type State struct {
	Rho float64 // rest-mass density
	V   float64 // velocity
	P   float64 // pressure
}

// WaveKind labels an outer wave of the Riemann fan.
type WaveKind int

// Wave kinds.
const (
	Shock WaveKind = iota
	Rarefaction
)

// String implements fmt.Stringer.
func (w WaveKind) String() string {
	if w == Shock {
		return "shock"
	}
	return "rarefaction"
}

// Solution is a solved Riemann problem, ready for sampling.
type Solution struct {
	Gamma float64 // adiabatic index
	L, R  State   // input states

	Pstar float64 // pressure in the star region
	Vstar float64 // velocity of the contact discontinuity

	LeftWave  WaveKind
	RightWave WaveKind

	RhoStarL float64 // density left of the contact
	RhoStarR float64 // density right of the contact

	// Wave speeds: for shocks the single speed; for rarefactions the head
	// and tail speeds (head is the edge adjacent to the unperturbed state).
	LeftSpeed  float64 // shock speed (left wave, if shock)
	LeftHead   float64 // rarefaction head (if rarefaction)
	LeftTail   float64
	RightSpeed float64
	RightHead  float64
	RightTail  float64
}

type gas struct{ gamma float64 }

func (g gas) soundSpeed(rho, p float64) float64 {
	h := 1 + g.gamma/(g.gamma-1)*p/rho
	return math.Sqrt(g.gamma * p / (rho * h))
}

func (g gas) enthalpy(rho, p float64) float64 {
	return 1 + g.gamma/(g.gamma-1)*p/rho
}

// isentropeRho returns the density at pressure p on the isentrope through
// (rho0, p0).
func (g gas) isentropeRho(rho0, p0, p float64) float64 {
	return rho0 * math.Pow(p/p0, 1/g.gamma)
}

// phi is the rarefaction invariant term Φ(c) = (2/√(Γ−1)) atanh(c/√(Γ−1)).
func (g gas) phi(cs float64) float64 {
	s := math.Sqrt(g.gamma - 1)
	return 2 / s * math.Atanh(cs/s)
}

// taubH solves the Taub adiabat for the post-shock enthalpy given the
// pre-shock state (rho, p, h) and post-shock pressure pb > p:
//
//	h̄² − h² = (h̄/ρ̄ + h/ρ)(p̄ − p),  ρ̄ = Γ p̄ (h̄ − 1)⁻¹/(Γ−1)⁻¹ …
//
// substituting the ideal-gas ρ̄ gives a quadratic in h̄ whose positive root
// is returned.
func (g gas) taubH(rho, p, pb float64) float64 {
	h := g.enthalpy(rho, p)
	a := (g.gamma - 1) * (pb - p) / (g.gamma * pb)
	// h̄² − a·h̄ + (a − (p̄−p)h/ρ − h²)·... derive: h̄/ρ̄ = a(h̄−1)/(p̄−p)·...
	// From ρ̄ = Γ p̄ / ((Γ−1)(h̄−1)):  h̄/ρ̄ = (Γ−1) h̄ (h̄−1) / (Γ p̄).
	// Taub: h̄² − h² = [ (Γ−1) h̄ (h̄−1)/(Γ p̄) + h/ρ ] (p̄ − p)
	//  ⇒ (1 − a) h̄² + a h̄ − (h² + (p̄−p) h/ρ) = 0.
	A := 1 - a
	B := a
	C := -(h*h + (pb-p)*h/rho)
	disc := B*B - 4*A*C
	if disc < 0 {
		disc = 0
	}
	return (-B + math.Sqrt(disc)) / (2 * A)
}

// shockWave returns the post-shock flow velocity and the shock speed for a
// wave on side sign (−1 left, +1 right) with post pressure pb > p.
func (g gas) shockWave(s State, pb, sign float64) (vbar, vshock float64, err error) {
	h := g.enthalpy(s.Rho, s.P)
	hb := g.taubH(s.Rho, s.P, pb)
	if hb <= 1 {
		return 0, 0, fmt.Errorf("exact: Taub adiabat gave h=%v", hb)
	}
	rhob := g.gamma * pb / ((g.gamma - 1) * (hb - 1))
	den := h/s.Rho - hb/rhob
	if den <= 0 {
		return 0, 0, fmt.Errorf("exact: non-compressive shock branch (pb=%v)", pb)
	}
	j := math.Sqrt((pb - s.P) / den) // mass-flux magnitude
	w := 1 / math.Sqrt(1-s.V*s.V)
	a2 := s.Rho * s.Rho * w * w
	root := math.Sqrt(a2*(1-s.V*s.V) + j*j)
	vshock = (a2*s.V + sign*j*root) / (a2 + j*j)
	if vshock <= -1 || vshock >= 1 {
		return 0, 0, fmt.Errorf("exact: acausal shock speed %v", vshock)
	}

	// Post-shock velocity from mass conservation across the shock:
	// ρ̄ W̄ (v̄ − V_s) = ρ W (v − V_s) = q, a quadratic in v̄; pick the root
	// that also satisfies the momentum jump condition.
	q := s.Rho * w * (s.V - vshock)
	aa := rhob * rhob
	qq := q * q
	disc := qq * (aa*(1-vshock*vshock) + qq)
	if disc < 0 {
		disc = 0
	}
	sq := math.Sqrt(disc)
	cand := []float64{
		(aa*vshock + sq) / (aa + qq),
		(aa*vshock - sq) / (aa + qq),
	}
	// Momentum jump: ρ h W² v (v − V_s) + p must be continuous.
	mom := func(rho, p, v float64) float64 {
		ww := 1 / (1 - v*v)
		hh := g.enthalpy(rho, p)
		return rho*hh*ww*v*(v-vshock) + p
	}
	want := mom(s.Rho, s.P, s.V)
	best, bestErr := math.NaN(), math.Inf(1)
	for _, v := range cand {
		if v <= -1 || v >= 1 || math.IsNaN(v) {
			continue
		}
		if e := math.Abs(mom(rhob, pb, v) - want); e < bestErr {
			best, bestErr = v, e
		}
	}
	if math.IsNaN(best) {
		return 0, 0, fmt.Errorf("exact: no causal post-shock velocity (pb=%v)", pb)
	}
	if bestErr > 1e-6*(1+math.Abs(want)) {
		return 0, 0, fmt.Errorf("exact: momentum jump residual %v at pb=%v", bestErr, pb)
	}
	return best, vshock, nil
}

// rarefactionV returns the flow velocity behind a rarefaction on side sign
// (−1 left, +1 right) with post pressure pb < p, using the exact ideal-gas
// Riemann invariant J∓ = atanh(v) ± Φ(c_s).
func (g gas) rarefactionV(s State, pb, sign float64) float64 {
	cs0 := g.soundSpeed(s.Rho, s.P)
	rhob := g.isentropeRho(s.Rho, s.P, pb)
	csb := g.soundSpeed(rhob, pb)
	// Left wave (sign=−1) conserves J+ = atanh(v) + Φ(c); right wave
	// conserves J− = atanh(v) − Φ(c).
	return math.Tanh(math.Atanh(s.V) - sign*(g.phi(cs0)-g.phi(csb)))
}

// velocityBehind returns the flow velocity behind the outer wave on the
// given side for candidate star pressure pb.
func (g gas) velocityBehind(s State, pb, sign float64) (float64, error) {
	if pb > s.P {
		v, _, err := g.shockWave(s, pb, sign)
		return v, err
	}
	return g.rarefactionV(s, pb, sign), nil
}

// ErrVacuum is returned when the two states separate fast enough that a
// vacuum region forms and no star pressure exists.
var ErrVacuum = errors.New("exact: vacuum formation, no star state")

// Solve computes the exact solution of the Riemann problem with left and
// right states l, r and adiabatic index gamma.
func Solve(l, r State, gamma float64) (*Solution, error) {
	if gamma <= 1 || gamma > 2 {
		return nil, fmt.Errorf("exact: adiabatic index %v outside (1,2]", gamma)
	}
	for _, s := range []State{l, r} {
		if s.Rho <= 0 || s.P <= 0 || math.Abs(s.V) >= 1 {
			return nil, fmt.Errorf("exact: inadmissible state %+v", s)
		}
	}
	g := gas{gamma}

	// f(p) = vL̄(p) − vR̄(p): strictly decreasing; root is p*.
	f := func(p float64) (float64, error) {
		vl, err := g.velocityBehind(l, p, -1)
		if err != nil {
			return 0, err
		}
		vr, err := g.velocityBehind(r, p, +1)
		if err != nil {
			return 0, err
		}
		return vl - vr, nil
	}

	// Bracket the root: expand from [tiny, max(pL,pR)] until f changes sign.
	pLo := 1e-14 * math.Min(l.P, r.P)
	pHi := math.Max(l.P, r.P)
	fLo, err := f(pLo)
	if err != nil {
		return nil, err
	}
	if fLo <= 0 {
		// Even at (near-)zero pressure the sides separate: vacuum.
		return nil, ErrVacuum
	}
	var fHi float64
	for k := 0; ; k++ {
		fHi, err = f(pHi)
		if err != nil {
			return nil, err
		}
		if fHi < 0 {
			break
		}
		pHi *= 8
		if k > 100 {
			return nil, errors.New("exact: failed to bracket star pressure")
		}
	}
	pstar, err := brent(func(p float64) float64 {
		v, e := f(p)
		if e != nil {
			// Brent cannot propagate errors; an inadmissible evaluation in
			// the interior of a valid bracket indicates a broken branch.
			panic(e)
		}
		return v
	}, pLo, pHi, 1e-14*pHi, 200)
	if err != nil {
		return nil, fmt.Errorf("exact: pressure iteration: %w", err)
	}

	sol := &Solution{Gamma: gamma, L: l, R: r, Pstar: pstar}
	vstar, err := g.velocityBehind(l, pstar, -1)
	if err != nil {
		return nil, err
	}
	sol.Vstar = vstar

	// Left wave structure.
	if pstar > l.P {
		sol.LeftWave = Shock
		_, vs, err := g.shockWave(l, pstar, -1)
		if err != nil {
			return nil, err
		}
		sol.LeftSpeed = vs
		hb := g.taubH(l.Rho, l.P, pstar)
		sol.RhoStarL = gamma * pstar / ((gamma - 1) * (hb - 1))
	} else {
		sol.LeftWave = Rarefaction
		sol.RhoStarL = g.isentropeRho(l.Rho, l.P, pstar)
		cs0 := g.soundSpeed(l.Rho, l.P)
		csb := g.soundSpeed(sol.RhoStarL, pstar)
		sol.LeftHead = (l.V - cs0) / (1 - l.V*cs0)
		sol.LeftTail = (vstar - csb) / (1 - vstar*csb)
	}

	// Right wave structure.
	if pstar > r.P {
		sol.RightWave = Shock
		_, vs, err := g.shockWave(r, pstar, +1)
		if err != nil {
			return nil, err
		}
		sol.RightSpeed = vs
		hb := g.taubH(r.Rho, r.P, pstar)
		sol.RhoStarR = gamma * pstar / ((gamma - 1) * (hb - 1))
	} else {
		sol.RightWave = Rarefaction
		sol.RhoStarR = g.isentropeRho(r.Rho, r.P, pstar)
		cs0 := g.soundSpeed(r.Rho, r.P)
		csb := g.soundSpeed(sol.RhoStarR, pstar)
		sol.RightHead = (r.V + cs0) / (1 + r.V*cs0)
		sol.RightTail = (vstar + csb) / (1 + vstar*csb)
	}
	return sol, nil
}

// insideFan solves for the state inside a rarefaction fan at similarity
// coordinate xi. sign is −1 for the left fan, +1 for the right fan.
func (s *Solution) insideFan(st State, xi, sign float64) State {
	g := gas{s.Gamma}
	// The fan state at xi satisfies (v ∓ c)/(1 ∓ v c) = xi together with
	// the Riemann invariant through st. Solve for p by bisection between
	// pstar and the outer pressure.
	lo, hi := s.Pstar, st.P
	if lo > hi {
		lo, hi = hi, lo
	}
	eval := func(p float64) (State, float64) {
		rho := g.isentropeRho(st.Rho, st.P, p)
		cs := g.soundSpeed(rho, p)
		v := math.Tanh(math.Atanh(st.V) - sign*(g.phi(g.soundSpeed(st.Rho, st.P))-g.phi(cs)))
		var char float64
		if sign < 0 {
			char = (v - cs) / (1 - v*cs)
		} else {
			char = (v + cs) / (1 + v*cs)
		}
		return State{Rho: rho, V: v, P: p}, char - xi
	}
	for k := 0; k < 100; k++ {
		mid := 0.5 * (lo + hi)
		_, r := eval(mid)
		// The characteristic speed decreases with p in the left fan and
		// increases with p in the right fan, so a positive residual means
		// "p too small" on the left and "p too large" on the right.
		if (sign > 0) == (r > 0) {
			hi = mid
		} else {
			lo = mid
		}
	}
	st2, _ := eval(0.5 * (lo + hi))
	return st2
}

// Sample returns the exact state at similarity coordinate xi = x/t.
func (s *Solution) Sample(xi float64) State {
	// Left of the left wave.
	switch s.LeftWave {
	case Shock:
		if xi <= s.LeftSpeed {
			return s.L
		}
	case Rarefaction:
		if xi <= s.LeftHead {
			return s.L
		}
		if xi < s.LeftTail {
			return s.insideFan(s.L, xi, -1)
		}
	}
	// Right of the right wave.
	switch s.RightWave {
	case Shock:
		if xi >= s.RightSpeed {
			return s.R
		}
	case Rarefaction:
		if xi >= s.RightHead {
			return s.R
		}
		if xi > s.RightTail {
			return s.insideFan(s.R, xi, +1)
		}
	}
	// Star region, split by the contact.
	if xi < s.Vstar {
		return State{Rho: s.RhoStarL, V: s.Vstar, P: s.Pstar}
	}
	return State{Rho: s.RhoStarR, V: s.Vstar, P: s.Pstar}
}
