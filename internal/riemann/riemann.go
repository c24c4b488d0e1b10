// Package riemann implements the approximate Riemann solvers that supply
// the numerical flux at cell faces: local Lax–Friedrichs (LLF/Rusanov),
// HLL (Harten–Lax–van Leer), and HLLC for SRHD following Mignone & Bodo
// (2005, MNRAS 364, 126), which restores the contact wave HLL averages
// away.
//
// Every solver consumes the reconstructed primitive states on the two
// sides of a face and returns the flux of the conserved variables through
// it. All solvers reduce to the exact flux when the two states agree
// (consistency), and upwind fully for supersonic flow.
package riemann

import (
	"fmt"
	"math"

	"rhsc/internal/eos"
	"rhsc/internal/state"
)

// Solver computes the numerical flux through a face from the reconstructed
// primitive states on its two sides. Implementations must be stateless or
// otherwise safe for concurrent use.
type Solver interface {
	// Name identifies the solver in output and benchmarks.
	Name() string
	// Kind identifies the solver's combiner, so a sweep can resolve the
	// configured solver once and evaluate Kind.Flux on face states it
	// built itself.
	Kind() Kind
	// Flux returns the numerical flux along direction d given left and
	// right primitive states: Kind().Flux on the two evaluated states.
	Flux(e eos.EOS, pl, pr state.Prim, d state.Direction) state.Cons
}

// Face is the evaluated state on one side of a face — everything a
// combiner needs: the conserved variables, their fluxes along the sweep
// direction, the normal velocity, the pressure and the characteristic
// speeds.
type Face struct {
	D, Sx, Sy, Sz, Tau      float64 // conserved
	FD, FSx, FSy, FSz, FTau float64 // fluxes along the sweep direction
	Vd, P                   float64 // normal velocity, pressure
	Lm, Lp                  float64 // characteristic speeds λ−, λ+
}

// Eval fills f from the primitive state q, its specific enthalpy h and
// squared sound speed cs2. The arithmetic is state.Prim.ToCons, state.Flux
// and state.WaveSpeeds operation for operation with h and cs2 hoisted out,
// so a sweep that inlines its equation of state reproduces the
// interface-dispatched results bitwise. It fills in place: returning the
// 112-byte struct by value puts a duffcopy on the per-face hot path.
func (f *Face) Eval(h, cs2 float64, q state.Prim, d state.Direction) {
	v2 := q.Vx*q.Vx + q.Vy*q.Vy + q.Vz*q.Vz
	w := 1 / math.Sqrt(1-v2)
	rhw2 := q.Rho * h * w * w
	f.D = q.Rho * w
	f.Sx = rhw2 * q.Vx
	f.Sy = rhw2 * q.Vy
	f.Sz = rhw2 * q.Vz
	f.Tau = rhw2 - q.P - f.D

	var vd, sd float64
	switch d {
	case state.X:
		vd, sd = q.Vx, f.Sx
	case state.Y:
		vd, sd = q.Vy, f.Sy
	default:
		vd, sd = q.Vz, f.Sz
	}
	f.Vd, f.P = vd, q.P
	f.FD = f.D * vd
	f.FSx = f.Sx * vd
	f.FSy = f.Sy * vd
	f.FSz = f.Sz * vd
	f.FTau = sd - f.D*vd
	switch d {
	case state.X:
		f.FSx += q.P
	case state.Y:
		f.FSy += q.P
	default:
		f.FSz += q.P
	}
	f.Lm, f.Lp = state.SignalSpeeds(cs2, v2, vd)
}

// Kind enumerates the combiners.
type Kind uint8

// The three solvers.
const (
	KindLLF Kind = iota
	KindHLL
	KindHLLC
)

// Flux returns the numerical flux (D, S_x, S_y, S_z, τ components) through
// a face along direction d from the evaluated states on its two sides.
func (k Kind) Flux(l, r *Face, d state.Direction) (fd, fsx, fsy, fsz, ftau float64) {
	switch k {
	case KindLLF:
		return llf(l, r)
	case KindHLL:
		return hll(l, r)
	default:
		return hllc(l, r, d)
	}
}

// primFlux backs the Solver.Flux methods: evaluate both sides through the
// EOS interface, then combine.
func (k Kind) primFlux(e eos.EOS, pl, pr state.Prim, d state.Direction) state.Cons {
	var l, r Face
	l.Eval(e.Enthalpy(pl.Rho, pl.P), e.SoundSpeed2(pl.Rho, pl.P), pl, d)
	r.Eval(e.Enthalpy(pr.Rho, pr.P), e.SoundSpeed2(pr.Rho, pr.P), pr, d)
	var f state.Cons
	f.D, f.Sx, f.Sy, f.Sz, f.Tau = k.Flux(&l, &r, d)
	return f
}

// LLF is the local Lax–Friedrichs (Rusanov) solver: maximally dissipative
// single-wave flux F = ½(F_L + F_R − α(U_R − U_L)) with α the largest
// absolute signal speed of the two states.
type LLF struct{}

// Name implements Solver.
func (LLF) Name() string { return "llf" }

// Kind implements Solver.
func (LLF) Kind() Kind { return KindLLF }

// Flux implements Solver.
func (LLF) Flux(e eos.EOS, pl, pr state.Prim, d state.Direction) state.Cons {
	return KindLLF.primFlux(e, pl, pr, d)
}

// The wave-speed bounds below use the builtin min and max, which inline
// where math.Min/math.Max are calls into assembly. The two agree on NaN
// propagation and signed zeros and differ only on an (±Inf, NaN) pair
// (builtin NaN, math ±Inf), which no admissible face state produces and
// the non-finite checks downstream catch either way.

func llf(l, r *Face) (fd, fsx, fsy, fsz, ftau float64) {
	alpha := max(math.Abs(l.Lm), math.Abs(l.Lp), math.Abs(r.Lm), math.Abs(r.Lp))
	return 0.5 * (l.FD + r.FD - alpha*(r.D-l.D)),
		0.5 * (l.FSx + r.FSx - alpha*(r.Sx-l.Sx)),
		0.5 * (l.FSy + r.FSy - alpha*(r.Sy-l.Sy)),
		0.5 * (l.FSz + r.FSz - alpha*(r.Sz-l.Sz)),
		0.5 * (l.FTau + r.FTau - alpha*(r.Tau-l.Tau))
}

// HLL is the two-wave Harten–Lax–van Leer solver, with the Davis
// estimates S_L = min(λ−(L), λ−(R)) and S_R = max(λ+(L), λ+(R)) of the
// outer wave speeds (HLLC uses the same).
type HLL struct{}

// Name implements Solver.
func (HLL) Name() string { return "hll" }

// Kind implements Solver.
func (HLL) Kind() Kind { return KindHLL }

// Flux implements Solver.
func (HLL) Flux(e eos.EOS, pl, pr state.Prim, d state.Direction) state.Cons {
	return KindHLL.primFlux(e, pl, pr, d)
}

func hll(l, r *Face) (fd, fsx, fsy, fsz, ftau float64) {
	sl := min(l.Lm, r.Lm)
	sr := max(l.Lp, r.Lp)
	switch {
	case sl >= 0:
		return l.FD, l.FSx, l.FSy, l.FSz, l.FTau
	case sr <= 0:
		return r.FD, r.FSx, r.FSy, r.FSz, r.FTau
	}
	inv := 1 / (sr - sl)
	hll := func(flc, frc, ulc, urc float64) float64 {
		return (sr*flc - sl*frc + sl*sr*(urc-ulc)) * inv
	}
	return hll(l.FD, r.FD, l.D, r.D),
		hll(l.FSx, r.FSx, l.Sx, r.Sx),
		hll(l.FSy, r.FSy, l.Sy, r.Sy),
		hll(l.FSz, r.FSz, l.Sz, r.Sz),
		hll(l.FTau, r.FTau, l.Tau, r.Tau)
}

// HLLC is the three-wave solver of Mignone & Bodo (2005) for SRHD: the HLL
// fan is split by the contact wave moving at λ*, restoring exact contact
// and shear-wave resolution.
type HLLC struct{}

// Name implements Solver.
func (HLLC) Name() string { return "hllc" }

// Kind implements Solver.
func (HLLC) Kind() Kind { return KindHLLC }

// Flux implements Solver.
func (HLLC) Flux(e eos.EOS, pl, pr state.Prim, d state.Direction) state.Cons {
	return KindHLLC.primFlux(e, pl, pr, d)
}

func hllc(l, r *Face, d state.Direction) (fd, fsx, fsy, fsz, ftau float64) {
	sl := min(l.Lm, r.Lm)
	sr := max(l.Lp, r.Lp)
	switch {
	case sl >= 0:
		return l.FD, l.FSx, l.FSy, l.FSz, l.FTau
	case sr <= 0:
		return r.FD, r.FSx, r.FSy, r.FSz, r.FTau
	}

	// HLL state and flux of the total energy E = τ + D and the normal
	// momentum m = S_d. F(E) = F(τ) + F(D) = S_d.
	inv := 1 / (sr - sl)
	hllU := func(ulc, urc, flc, frc float64) float64 {
		return (sr*urc - sl*ulc + flc - frc) * inv
	}
	hllF := func(flc, frc, ulc, urc float64) float64 {
		return (sr*flc - sl*frc + sl*sr*(urc-ulc)) * inv
	}
	eL := l.Tau + l.D
	eR := r.Tau + r.D
	var mL, mR, fmL, fmR float64
	switch d {
	case state.X:
		mL, mR, fmL, fmR = l.Sx, r.Sx, l.FSx, r.FSx
	case state.Y:
		mL, mR, fmL, fmR = l.Sy, r.Sy, l.FSy, r.FSy
	default:
		mL, mR, fmL, fmR = l.Sz, r.Sz, l.FSz, r.FSz
	}
	feL := l.FTau + l.FD // = S_d(L)
	feR := r.FTau + r.FD
	eH := hllU(eL, eR, feL, feR)
	mH := hllU(mL, mR, fmL, fmR)
	feH := hllF(feL, feR, eL, eR)
	fmH := hllF(fmL, fmR, mL, mR)

	// Contact speed: F_E λ*² − (E + F_m) λ* + m = 0, taking the root that
	// lies inside the fan (minus branch, M&B eq. 18).
	a := feH
	b := -(eH + fmH)
	c := mH
	var lstar float64
	if math.Abs(a) > 1e-12*(math.Abs(b)+math.Abs(c)) {
		disc := b*b - 4*a*c
		if disc < 0 {
			disc = 0
		}
		// Numerically stable quadratic: q = −(b + sign(b)·sqrt(disc))/2.
		q := -0.5 * (b + math.Copysign(math.Sqrt(disc), b))
		lstar = c / q
	} else {
		lstar = -c / b
	}
	// Guard against roundoff pushing λ* outside the fan.
	if lstar < sl {
		lstar = sl
	}
	if lstar > sr {
		lstar = sr
	}

	// Star-region pressure (M&B eq. 17).
	pstar := -feH*lstar + fmH

	// Rankine–Hugoniot jump across the outer wave S_K on the side
	// containing the face (λ* >= 0 → left star state); the flux is
	// F_K + S_K (U*_K − U_K).
	k, sk := r, sr
	if lstar >= 0 {
		k, sk = l, sl
	}
	vk := k.Vd
	ek := k.Tau + k.D
	invK := 1 / (sk - lstar)
	dstar := k.D * (sk - vk) * invK
	estar := (ek*(sk-vk) + pstar*lstar - k.P*vk) * invK
	// Normal momentum: m* = (m(S_K − v) + p* − p)/(S_K − λ*).
	// Transverse momenta advect: S_t* = S_t (S_K − v)/(S_K − λ*).
	adv := (sk - vk) * invK
	var sxs, sys, szs float64
	switch d {
	case state.X:
		sxs = (k.Sx*(sk-vk) + pstar - k.P) * invK
		sys = k.Sy * adv
		szs = k.Sz * adv
	case state.Y:
		sys = (k.Sy*(sk-vk) + pstar - k.P) * invK
		sxs = k.Sx * adv
		szs = k.Sz * adv
	default:
		szs = (k.Sz*(sk-vk) + pstar - k.P) * invK
		sxs = k.Sx * adv
		sys = k.Sy * adv
	}
	taustar := estar - dstar
	return k.FD + sk*(dstar-k.D),
		k.FSx + sk*(sxs-k.Sx),
		k.FSy + sk*(sys-k.Sy),
		k.FSz + sk*(szs-k.Sz),
		k.FTau + sk*(taustar-k.Tau)
}

// ByName returns the solver registered under name: "llf", "hll", "hllc".
func ByName(name string) (Solver, error) {
	switch name {
	case "llf":
		return LLF{}, nil
	case "hll":
		return HLL{}, nil
	case "hllc":
		return HLLC{}, nil
	}
	return nil, fmt.Errorf("riemann: unknown solver %q", name)
}

// All returns every solver, for sweep-style benchmarks.
func All() []Solver { return []Solver{LLF{}, HLL{}, HLLC{}} }
