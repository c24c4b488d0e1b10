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
	"rhsc/internal/simd"
	"rhsc/internal/state"
)

// Solver computes the numerical flux through a face from the reconstructed
// primitive states on its two sides. Implementations must be stateless or
// otherwise safe for concurrent use.
type Solver interface {
	// Name identifies the solver in output and benchmarks.
	Name() string
	// Kind identifies the solver's combiner, so a sweep can resolve the
	// configured solver once and run Kind.FluxRow on face rows it
	// evaluated itself.
	Kind() Kind
	// Flux returns the numerical flux along direction d given left and
	// right primitive states: Kind().Flux on the two evaluated states.
	Flux(e eos.EOS, pl, pr state.Prim, d state.Direction) state.Cons
}

// Faces is one side of a row of faces as struct-of-arrays slabs: entry f
// of each slab belongs to face f. It holds everything a combiner needs —
// the conserved variables, their fluxes along the sweep direction, the
// normal velocity, the pressure and the characteristic speeds. EvalRow
// fills it and Kind.FluxRow combines a left and a right row.
type Faces struct {
	D, Sx, Sy, Sz, Tau      []float64 // conserved
	FD, FSx, FSy, FSz, FTau []float64 // fluxes along the sweep direction
	Vd, P                   []float64 // normal velocity, pressure
	Lm, Lp                  []float64 // characteristic speeds λ−, λ+
}

// NSlab is the number of slabs in a Faces row.
const NSlab = 14

// NewFaces views buf, of at least NSlab·n words, as a row of n faces:
// slab k, in field order, is buf[k·n : (k+1)·n].
func NewFaces(buf []float64, n int) Faces {
	s := func(k int) []float64 { return buf[k*n : (k+1)*n : (k+1)*n] }
	return Faces{s(0), s(1), s(2), s(3), s(4), s(5), s(6), s(7), s(8), s(9), s(10), s(11), s(12), s(13)}
}

// rot orders the x, y, z slabs of a vector as (normal, transverse,
// transverse) for direction d, so a row kernel resolves the direction once.
func rot(d state.Direction, x, y, z []float64) (n, t1, t2 []float64) {
	switch d {
	case state.X:
		return x, y, z
	case state.Y:
		return y, x, z
	}
	return z, x, y
}

// EvalRow fills faces [lo, hi) of f from the primitive rows q (indexed by
// state.IRho … state.IP) along direction d. The Γ-law gas has its
// enthalpy and sound speed inlined; any other closure is evaluated
// through the interface in a pre-pass that stages h and c_s² in the λ
// slabs. Where the CPU has AVX2, a row of four or more faces runs
// through the vector kernel, which agrees with evalRow bit for bit;
// evalRow takes shorter rows and, for a staged closure, the last
// (hi−lo) mod 4 faces.
func EvalRow(f *Faces, q *[state.NComp][]float64, e eos.EOS, d state.Direction, lo, hi int) {
	gamma := 0.0
	if g, ok := e.(eos.IdealGas); ok {
		gamma = g.GammaAd
	} else {
		rho, p, h, cs2 := q[state.IRho][lo:hi], q[state.IP][lo:hi], f.Lm[lo:hi], f.Lp[lo:hi]
		for i := range rho {
			h[i], cs2[i] = e.Enthalpy(rho[i], p[i]), e.SoundSpeed2(rho[i], p[i])
		}
	}
	if simd.AVX2 {
		lo = evalRowVec(f, q, gamma, d, lo, hi)
	}
	evalRow(f, q, gamma, d, lo, hi)
}

// evalRow is EvalRow after the EOS dispatch: gamma > 0 is the Γ-law gas,
// whose h and c_s² it computes as eos.IdealGas does; otherwise they are
// staged in f.Lm and f.Lp. The arithmetic is state.Prim.ToCons, the
// physical flux and state.SignalSpeeds operation for operation with h and
// c_s² hoisted out, so the row reproduces the interface-dispatched results
// bitwise.
func evalRow(f *Faces, q *[state.NComp][]float64, gamma float64, d state.Direction, lo, hi int) {
	n := hi - lo
	if n <= 0 {
		return
	}
	rho, vx, vy, vz, p := q[state.IRho][lo:hi], q[state.IVx][lo:hi], q[state.IVy][lo:hi],
		q[state.IVz][lo:hi], q[state.IP][lo:hi]
	vn, vt1, vt2 := rot(d, vx, vy, vz)
	sn, st1, st2 := rot(d, f.Sx[lo:hi], f.Sy[lo:hi], f.Sz[lo:hi])
	fn, ft1, ft2 := rot(d, f.FSx[lo:hi], f.FSy[lo:hi], f.FSz[lo:hi])
	dd, tau, fd, ftau := f.D[lo:hi], f.Tau[lo:hi], f.FD[lo:hi], f.FTau[lo:hi]
	vd, pf, lm, lp := f.Vd[lo:hi], f.P[lo:hi], f.Lm[lo:hi], f.Lp[lo:hi]
	_, _, _, _, _, _, _, _ = rho[n-1], vx[n-1], vy[n-1], vz[n-1], p[n-1], vn[n-1], vt1[n-1], vt2[n-1]
	_, _, _, _, _, _ = sn[n-1], st1[n-1], st2[n-1], fn[n-1], ft1[n-1], ft2[n-1]
	_, _, _, _, _, _, _, _ = dd[n-1], tau[n-1], fd[n-1], ftau[n-1], vd[n-1], pf[n-1], lm[n-1], lp[n-1]
	gog := gamma / (gamma - 1)
	for i := 0; i < n; i++ {
		r, pi, un := rho[i], p[i], vn[i]
		v2 := vx[i]*vx[i] + vy[i]*vy[i] + vz[i]*vz[i]
		h, cs2 := lm[i], lp[i]
		if gamma > 0 {
			h = 1 + gog*pi/r
			cs2 = gamma * pi / (r * h)
		}
		w := 1 / math.Sqrt(1-v2)
		rhw2 := r * h * w * w
		di := r * w
		mn, mt1, mt2 := rhw2*un, rhw2*vt1[i], rhw2*vt2[i]
		dd[i], sn[i], st1[i], st2[i], tau[i] = di, mn, mt1, mt2, rhw2-pi-di
		vd[i], pf[i] = un, pi
		fd[i], fn[i], ft1[i], ft2[i], ftau[i] = di*un, mn*un+pi, mt1*un, mt2*un, mn-di*un
		lm[i], lp[i] = state.SignalSpeeds(cs2, v2, un)
	}
}

// Face is the evaluated state on one side of a single face: a one-face
// Faces row, slab k at index k.
type Face [NSlab]float64

// row views f as a one-face Faces row.
func (f *Face) row() Faces {
	return Faces{f[0:1], f[1:2], f[2:3], f[3:4], f[4:5], f[5:6], f[6:7],
		f[7:8], f[8:9], f[9:10], f[10:11], f[11:12], f[12:13], f[13:14]}
}

// Eval fills f from the primitive state q, its specific enthalpy h and
// squared sound speed cs2: evalRow on a one-face row.
func (f *Face) Eval(h, cs2 float64, q state.Prim, d state.Direction) {
	row := f.row()
	row.Lm[0], row.Lp[0] = h, cs2
	w := [state.NComp]float64{state.IRho: q.Rho, state.IVx: q.Vx, state.IVy: q.Vy, state.IVz: q.Vz, state.IP: q.P}
	var qs [state.NComp][]float64
	for c := range qs {
		qs[c] = w[c : c+1]
	}
	evalRow(&row, &qs, 0, d, 0, 1)
}

// Kind enumerates the combiners.
type Kind uint8

// The three solvers.
const (
	KindLLF Kind = iota
	KindHLL
	KindHLLC
)

// FluxRow writes the numerical fluxes of faces [lo, hi) along direction d
// into fx (indexed by state.ID … state.ITau) from the evaluated rows l
// and r. The combiner is resolved once per row. Where the CPU has AVX2,
// an HLL or HLLC row of four or more faces runs through the vector
// kernel, which agrees with hllRow or hllcRow bit for bit.
func (k Kind) FluxRow(l, r *Faces, fx *[state.NComp][]float64, d state.Direction, lo, hi int) {
	if hi <= lo {
		return
	}
	switch k {
	case KindLLF:
		llfRow(l, r, fx, lo, hi)
	case KindHLL:
		if simd.AVX2 {
			lo = hllRowVec(l, r, fx, lo, hi)
		}
		hllRow(l, r, fx, lo, hi)
	default:
		if simd.AVX2 {
			lo = hllcRowVec(l, r, fx, d, lo, hi)
		}
		hllcRow(l, r, fx, d, lo, hi)
	}
}

// Flux returns the numerical flux (D, S_x, S_y, S_z, τ components) through
// a face along direction d from the evaluated states on its two sides:
// FluxRow on a one-face row.
func (k Kind) Flux(l, r *Face, d state.Direction) (fd, fsx, fsy, fsz, ftau float64) {
	lr, rr := l.row(), r.row()
	var out [state.NComp]float64
	var fx [state.NComp][]float64
	for c := range fx {
		fx[c] = out[c : c+1]
	}
	k.FluxRow(&lr, &rr, &fx, d, 0, 1)
	return out[state.ID], out[state.ISx], out[state.ISy], out[state.ISz], out[state.ITau]
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

func llfRow(l, r *Faces, fx *[state.NComp][]float64, lo, hi int) {
	lD, lSx, lSy, lSz, lTau := l.D[lo:hi], l.Sx[lo:hi], l.Sy[lo:hi], l.Sz[lo:hi], l.Tau[lo:hi]
	lFD, lFSx, lFSy, lFSz, lFTau := l.FD[lo:hi], l.FSx[lo:hi], l.FSy[lo:hi], l.FSz[lo:hi], l.FTau[lo:hi]
	rD, rSx, rSy, rSz, rTau := r.D[lo:hi], r.Sx[lo:hi], r.Sy[lo:hi], r.Sz[lo:hi], r.Tau[lo:hi]
	rFD, rFSx, rFSy, rFSz, rFTau := r.FD[lo:hi], r.FSx[lo:hi], r.FSy[lo:hi], r.FSz[lo:hi], r.FTau[lo:hi]
	lLm, lLp, rLm, rLp := l.Lm[lo:hi], l.Lp[lo:hi], r.Lm[lo:hi], r.Lp[lo:hi]
	oD, oSx, oSy, oSz, oTau := fx[state.ID][lo:hi], fx[state.ISx][lo:hi], fx[state.ISy][lo:hi],
		fx[state.ISz][lo:hi], fx[state.ITau][lo:hi]
	for i := range oD {
		alpha := max(math.Abs(lLm[i]), math.Abs(lLp[i]), math.Abs(rLm[i]), math.Abs(rLp[i]))
		oD[i] = 0.5 * (lFD[i] + rFD[i] - alpha*(rD[i]-lD[i]))
		oSx[i] = 0.5 * (lFSx[i] + rFSx[i] - alpha*(rSx[i]-lSx[i]))
		oSy[i] = 0.5 * (lFSy[i] + rFSy[i] - alpha*(rSy[i]-lSy[i]))
		oSz[i] = 0.5 * (lFSz[i] + rFSz[i] - alpha*(rSz[i]-lSz[i]))
		oTau[i] = 0.5 * (lFTau[i] + rFTau[i] - alpha*(rTau[i]-lTau[i]))
	}
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

func hllRow(l, r *Faces, fx *[state.NComp][]float64, lo, hi int) {
	n := hi - lo
	if n <= 0 {
		return
	}
	lD, lSx, lSy, lSz, lTau := l.D[lo:hi], l.Sx[lo:hi], l.Sy[lo:hi], l.Sz[lo:hi], l.Tau[lo:hi]
	lFD, lFSx, lFSy, lFSz, lFTau := l.FD[lo:hi], l.FSx[lo:hi], l.FSy[lo:hi], l.FSz[lo:hi], l.FTau[lo:hi]
	rD, rSx, rSy, rSz, rTau := r.D[lo:hi], r.Sx[lo:hi], r.Sy[lo:hi], r.Sz[lo:hi], r.Tau[lo:hi]
	rFD, rFSx, rFSy, rFSz, rFTau := r.FD[lo:hi], r.FSx[lo:hi], r.FSy[lo:hi], r.FSz[lo:hi], r.FTau[lo:hi]
	lLm, lLp, rLm, rLp := l.Lm[lo:hi], l.Lp[lo:hi], r.Lm[lo:hi], r.Lp[lo:hi]
	oD, oSx, oSy, oSz, oTau := fx[state.ID][lo:hi], fx[state.ISx][lo:hi], fx[state.ISy][lo:hi],
		fx[state.ISz][lo:hi], fx[state.ITau][lo:hi]
	_, _, _, _, _, _, _, _, _, _ = lD[n-1], lSx[n-1], lSy[n-1], lSz[n-1], lTau[n-1],
		lFD[n-1], lFSx[n-1], lFSy[n-1], lFSz[n-1], lFTau[n-1]
	_, _, _, _, _, _, _, _, _, _ = rD[n-1], rSx[n-1], rSy[n-1], rSz[n-1], rTau[n-1],
		rFD[n-1], rFSx[n-1], rFSy[n-1], rFSz[n-1], rFTau[n-1]
	_, _, _, _, _, _, _, _, _ = lLm[n-1], lLp[n-1], rLm[n-1], rLp[n-1],
		oD[n-1], oSx[n-1], oSy[n-1], oSz[n-1], oTau[n-1]
	for i := 0; i < n; i++ {
		sl := min(lLm[i], rLm[i])
		sr := max(lLp[i], rLp[i])
		switch {
		case sl >= 0:
			oD[i], oSx[i], oSy[i], oSz[i], oTau[i] = lFD[i], lFSx[i], lFSy[i], lFSz[i], lFTau[i]
			continue
		case sr <= 0:
			oD[i], oSx[i], oSy[i], oSz[i], oTau[i] = rFD[i], rFSx[i], rFSy[i], rFSz[i], rFTau[i]
			continue
		}
		inv := 1 / (sr - sl)
		hll := func(flc, frc, ulc, urc float64) float64 {
			return (sr*flc - sl*frc + sl*sr*(urc-ulc)) * inv
		}
		oD[i] = hll(lFD[i], rFD[i], lD[i], rD[i])
		oSx[i] = hll(lFSx[i], rFSx[i], lSx[i], rSx[i])
		oSy[i] = hll(lFSy[i], rFSy[i], lSy[i], rSy[i])
		oSz[i] = hll(lFSz[i], rFSz[i], lSz[i], rSz[i])
		oTau[i] = hll(lFTau[i], rFTau[i], lTau[i], rTau[i])
	}
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

func hllcRow(l, r *Faces, fx *[state.NComp][]float64, d state.Direction, lo, hi int) {
	n := hi - lo
	if n <= 0 {
		return
	}
	lD, lTau, lFD, lFTau := l.D[lo:hi], l.Tau[lo:hi], l.FD[lo:hi], l.FTau[lo:hi]
	rD, rTau, rFD, rFTau := r.D[lo:hi], r.Tau[lo:hi], r.FD[lo:hi], r.FTau[lo:hi]
	lSn, lSt1, lSt2 := rot(d, l.Sx[lo:hi], l.Sy[lo:hi], l.Sz[lo:hi])
	lFn, lFt1, lFt2 := rot(d, l.FSx[lo:hi], l.FSy[lo:hi], l.FSz[lo:hi])
	rSn, rSt1, rSt2 := rot(d, r.Sx[lo:hi], r.Sy[lo:hi], r.Sz[lo:hi])
	rFn, rFt1, rFt2 := rot(d, r.FSx[lo:hi], r.FSy[lo:hi], r.FSz[lo:hi])
	lVd, lP, lLm, lLp := l.Vd[lo:hi], l.P[lo:hi], l.Lm[lo:hi], l.Lp[lo:hi]
	rVd, rP, rLm, rLp := r.Vd[lo:hi], r.P[lo:hi], r.Lm[lo:hi], r.Lp[lo:hi]
	oD, oTau := fx[state.ID][lo:hi], fx[state.ITau][lo:hi]
	oSn, oSt1, oSt2 := rot(d, fx[state.ISx][lo:hi], fx[state.ISy][lo:hi], fx[state.ISz][lo:hi])
	_, _, _, _, _, _, _, _, _, _, _, _, _, _ = lD[n-1], lTau[n-1], lFD[n-1], lFTau[n-1],
		lSn[n-1], lSt1[n-1], lSt2[n-1], lFn[n-1], lFt1[n-1], lFt2[n-1], lVd[n-1], lP[n-1], lLm[n-1], lLp[n-1]
	_, _, _, _, _, _, _, _, _, _, _, _, _, _ = rD[n-1], rTau[n-1], rFD[n-1], rFTau[n-1],
		rSn[n-1], rSt1[n-1], rSt2[n-1], rFn[n-1], rFt1[n-1], rFt2[n-1], rVd[n-1], rP[n-1], rLm[n-1], rLp[n-1]
	_, _, _, _, _ = oD[n-1], oTau[n-1], oSn[n-1], oSt1[n-1], oSt2[n-1]
	for i := 0; i < n; i++ {
		sl := min(lLm[i], rLm[i])
		sr := max(lLp[i], rLp[i])
		switch {
		case sl >= 0:
			oD[i], oSn[i], oSt1[i], oSt2[i], oTau[i] = lFD[i], lFn[i], lFt1[i], lFt2[i], lFTau[i]
			continue
		case sr <= 0:
			oD[i], oSn[i], oSt1[i], oSt2[i], oTau[i] = rFD[i], rFn[i], rFt1[i], rFt2[i], rFTau[i]
			continue
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
		eL := lTau[i] + lD[i]
		eR := rTau[i] + rD[i]
		mL, mR, fmL, fmR := lSn[i], rSn[i], lFn[i], rFn[i]
		feL := lFTau[i] + lFD[i] // = S_d(L)
		feR := rFTau[i] + rFD[i]
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
		sk, kD, kTau, kSn, kSt1, kSt2 := sr, rD[i], rTau[i], rSn[i], rSt1[i], rSt2[i]
		kFD, kFTau, kFn, kFt1, kFt2, vk, kP := rFD[i], rFTau[i], rFn[i], rFt1[i], rFt2[i], rVd[i], rP[i]
		if lstar >= 0 {
			sk, kD, kTau, kSn, kSt1, kSt2 = sl, lD[i], lTau[i], lSn[i], lSt1[i], lSt2[i]
			kFD, kFTau, kFn, kFt1, kFt2, vk, kP = lFD[i], lFTau[i], lFn[i], lFt1[i], lFt2[i], lVd[i], lP[i]
		}
		ek := kTau + kD
		invK := 1 / (sk - lstar)
		dstar := kD * (sk - vk) * invK
		estar := (ek*(sk-vk) + pstar*lstar - kP*vk) * invK
		// Normal momentum: m* = (m(S_K − v) + p* − p)/(S_K − λ*).
		// Transverse momenta advect: S_t* = S_t (S_K − v)/(S_K − λ*).
		adv := (sk - vk) * invK
		mstar := (kSn*(sk-vk) + pstar - kP) * invK
		oD[i] = kFD + sk*(dstar-kD)
		oSn[i] = kFn + sk*(mstar-kSn)
		oSt1[i] = kFt1 + sk*(kSt1*adv-kSt1)
		oSt2[i] = kFt2 + sk*(kSt2*adv-kSt2)
		oTau[i] = kFTau + sk*(estar-dstar-kTau)
	}
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
