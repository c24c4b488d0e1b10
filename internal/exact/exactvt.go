package exact

// Exact Riemann solver with transverse velocities (the problem class of
// Pons, Martí & Müller, JFM 422, 2000). Transverse velocity couples into
// the wave dynamics through the Lorentz factor; the key additional
// invariant is A = h W v_t, conserved across both shocks and simple
// waves.
//
// Shocks use the exact jump conditions: the (purely thermodynamic) Taub
// adiabat for the post enthalpy, the mass flux for the shock speed, and
// mass conservation closed by the A-invariant for the post-state
// kinematics. Rarefaction curves are integrated as sequences of weak
// shocks — entropy production per step is O(Δp³), so the composition
// converges to the isentropic simple wave; this reuses the tested shock
// relations instead of a hand-derived ODE.

import (
	"errors"
	"fmt"
	"math"
)

// State2 is a 1-D state with transverse velocity.
type State2 struct {
	Rho float64
	Vx  float64
	Vt  float64 // transverse speed (magnitude along a fixed direction)
	P   float64
}

// lorentz returns W for the full velocity.
func (s State2) lorentz() float64 {
	v2 := s.Vx*s.Vx + s.Vt*s.Vt
	return 1 / math.Sqrt(1-v2)
}

// SolutionVt is the solved Riemann problem with transverse velocities.
type SolutionVt struct {
	Gamma float64
	L, R  State2

	Pstar float64
	Vstar float64 // normal velocity of the contact

	LeftWave  WaveKind
	RightWave WaveKind

	// Star states adjacent to the contact (v_t generally jumps there).
	StarL State2
	StarR State2

	LeftSpeed  float64 // shock speed (left wave, if shock)
	LeftHead   float64
	LeftTail   float64
	RightSpeed float64
	RightHead  float64
	RightTail  float64
}

// waveResultVt is the post-wave state of one side for a candidate star
// pressure.
type waveResultVt struct {
	st     State2  // full post-wave state
	vshock float64 // shock speed (shock branch only)
}

// shockVt applies the exact jump conditions for a wave on side sign
// (−1 left, +1 right) taking state s to pressure pb.
func (g gas) shockVt(s State2, pb, sign float64) (waveResultVt, error) {
	h := g.enthalpy(s.Rho, s.P)
	w := s.lorentz()
	a := h * w * s.Vt // invariant A = h W v_t

	hb := g.taubH(s.Rho, s.P, pb)
	if hb <= 1 {
		return waveResultVt{}, fmt.Errorf("exact: Taub adiabat gave h=%v", hb)
	}
	rhob := g.gamma * pb / ((g.gamma - 1) * (hb - 1))
	den := h/s.Rho - hb/rhob
	j2 := (pb - s.P) / den
	if j2 <= 0 {
		return waveResultVt{}, fmt.Errorf("exact: invalid mass flux (pb=%v)", pb)
	}
	j := math.Sqrt(j2)

	// Shock speed from ρ²W²(V_s − v_x)² = j²(1 − V_s²).
	a2 := s.Rho * s.Rho * w * w
	root := math.Sqrt(a2*(1-s.Vx*s.Vx) + j2)
	vshock := (a2*s.Vx + sign*j*root) / (a2 + j2)
	if vshock <= -1 || vshock >= 1 {
		return waveResultVt{}, fmt.Errorf("exact: acausal shock speed %v", vshock)
	}

	// Post normal velocity: ρ̄ W̄ (v̄x − V_s) = ρ W (vx − V_s) with
	// W̄² = (1 + (A/h̄)²) / (1 − v̄x²).
	q := s.Rho * w * (s.Vx - vshock)
	b2 := rhob * rhob * (1 + (a/hb)*(a/hb))
	qq := q * q
	disc := qq * (b2*(1-vshock*vshock) + qq)
	if disc < 0 {
		disc = 0
	}
	sq := math.Sqrt(disc)
	cand := [2]float64{
		(b2*vshock + sq) / (b2 + qq),
		(b2*vshock - sq) / (b2 + qq),
	}
	// Select by the normal-momentum jump: ρhW²vx(vx−V_s) + p continuous.
	mom := func(rho, p, h, vx, vt float64) float64 {
		w2 := 1 / (1 - vx*vx - vt*vt)
		return rho*h*w2*vx*(vx-vshock) + p
	}
	want := mom(s.Rho, s.P, h, s.Vx, s.Vt)
	best := math.NaN()
	bestErr := math.Inf(1)
	var bestVt float64
	for _, vx := range cand {
		if !(vx > -1 && vx < 1) {
			continue
		}
		wb := math.Sqrt((1 + (a/hb)*(a/hb)) / (1 - vx*vx))
		vt := a / (hb * wb)
		if vx*vx+vt*vt >= 1 {
			continue
		}
		if e := math.Abs(mom(rhob, pb, hb, vx, vt) - want); e < bestErr {
			best, bestErr, bestVt = vx, e, vt
		}
	}
	if math.IsNaN(best) || bestErr > 1e-6*(1+math.Abs(want)) {
		return waveResultVt{}, fmt.Errorf("exact: no consistent post-shock state (pb=%v, res=%v)", pb, bestErr)
	}
	return waveResultVt{
		st:     State2{Rho: rhob, Vx: best, Vt: bestVt, P: pb},
		vshock: vshock,
	}, nil
}

// rarefactionVt integrates the simple-wave curve from s to pressure pb < p
// as a composition of weak shocks.
func (g gas) rarefactionVt(s State2, pb, sign float64) (State2, error) {
	if pb >= s.P {
		return s, errors.New("exact: rarefaction needs pb < p")
	}
	steps := int(64 + 48*math.Abs(math.Log(s.P/pb)))
	ratio := math.Pow(pb/s.P, 1/float64(steps))
	cur := s
	for k := 0; k < steps; k++ {
		target := cur.P * ratio
		if k == steps-1 {
			target = pb
		}
		res, err := g.shockVt(cur, target, sign)
		if err != nil {
			return State2{}, fmt.Errorf("exact: rarefaction step %d: %w", k, err)
		}
		cur = res.st
	}
	return cur, nil
}

// waveVt dispatches on compression vs expansion.
func (g gas) waveVt(s State2, pb, sign float64) (waveResultVt, error) {
	if pb > s.P {
		return g.shockVt(s, pb, sign)
	}
	if pb == s.P {
		return waveResultVt{st: s}, nil
	}
	st, err := g.rarefactionVt(s, pb, sign)
	return waveResultVt{st: st}, err
}

// charSpeed returns the acoustic characteristic speed λ± of the state
// along x for family sign (−1 left, +1 right).
func (g gas) charSpeed(s State2, sign float64) float64 {
	cs2 := g.soundSpeed(s.Rho, s.P)
	cs2 *= cs2
	v2 := s.Vx*s.Vx + s.Vt*s.Vt
	den := 1 - v2*cs2
	disc := (1 - v2) * (1 - v2*cs2 - s.Vx*s.Vx*(1-cs2))
	if disc < 0 {
		disc = 0
	}
	return (s.Vx*(1-cs2) + sign*math.Sqrt(cs2*disc)) / den
}

// SolveVt computes the exact solution of the Riemann problem with
// transverse velocities.
func SolveVt(l, r State2, gamma float64) (*SolutionVt, error) {
	if gamma <= 1 || gamma > 2 {
		return nil, fmt.Errorf("exact: adiabatic index %v outside (1,2]", gamma)
	}
	for _, s := range []State2{l, r} {
		if s.Rho <= 0 || s.P <= 0 || s.Vx*s.Vx+s.Vt*s.Vt >= 1 {
			return nil, fmt.Errorf("exact: inadmissible state %+v", s)
		}
	}
	g := gas{gamma}

	f := func(p float64) (float64, error) {
		wl, err := g.waveVt(l, p, -1)
		if err != nil {
			return 0, err
		}
		wr, err := g.waveVt(r, p, +1)
		if err != nil {
			return 0, err
		}
		return wl.st.Vx - wr.st.Vx, nil
	}

	pLo := 1e-12 * math.Min(l.P, r.P)
	pHi := math.Max(l.P, r.P)
	fLo, err := f(pLo)
	if err != nil {
		return nil, err
	}
	if fLo <= 0 {
		return nil, ErrVacuum
	}
	for k := 0; ; k++ {
		fHi, err := f(pHi)
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
			panic(e)
		}
		return v
	}, pLo, pHi, 1e-12*pHi, 200)
	if err != nil {
		return nil, fmt.Errorf("exact: pressure iteration: %w", err)
	}

	sol := &SolutionVt{Gamma: gamma, L: l, R: r, Pstar: pstar}
	wl, err := g.waveVt(l, pstar, -1)
	if err != nil {
		return nil, err
	}
	wr, err := g.waveVt(r, pstar, +1)
	if err != nil {
		return nil, err
	}
	sol.StarL, sol.StarR = wl.st, wr.st
	sol.Vstar = 0.5 * (wl.st.Vx + wr.st.Vx)

	if pstar > l.P {
		sol.LeftWave = Shock
		sol.LeftSpeed = wl.vshock
	} else {
		sol.LeftWave = Rarefaction
		sol.LeftHead = g.charSpeed(l, -1)
		sol.LeftTail = g.charSpeed(wl.st, -1)
	}
	if pstar > r.P {
		sol.RightWave = Shock
		sol.RightSpeed = wr.vshock
	} else {
		sol.RightWave = Rarefaction
		sol.RightHead = g.charSpeed(r, +1)
		sol.RightTail = g.charSpeed(wr.st, +1)
	}
	return sol, nil
}

// insideFanVt resolves the state inside a rarefaction fan at ξ by
// bisection on the pressure along the wave curve.
func (s *SolutionVt) insideFanVt(outer State2, xi, sign float64) State2 {
	g := gas{s.Gamma}
	lo, hi := s.Pstar, outer.P
	var st State2
	for k := 0; k < 60; k++ {
		mid := math.Sqrt(lo * hi)
		cur, err := g.rarefactionVt(outer, mid, sign)
		if err != nil {
			break
		}
		st = cur
		r := g.charSpeed(cur, sign) - xi
		// Left fan: char decreases with p; right fan: increases.
		if (sign > 0) == (r > 0) {
			hi = mid
		} else {
			lo = mid
		}
		if hi/lo-1 < 1e-12 {
			break
		}
	}
	return st
}

// Sample returns the exact state at similarity coordinate ξ = x/t.
func (s *SolutionVt) Sample(xi float64) State2 {
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
			return s.insideFanVt(s.L, xi, -1)
		}
	}
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
			return s.insideFanVt(s.R, xi, +1)
		}
	}
	if xi < s.Vstar {
		return s.StarL
	}
	return s.StarR
}
