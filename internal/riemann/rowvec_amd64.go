package riemann

import "rhsc/internal/state"

// The 4-lane AVX2 forms of evalRow, hllRow and hllcRow (rowvec_amd64.s).
// Each lane performs the Go loop's IEEE operations in the Go loop's
// order, with no fused multiply-add, and selects between the branches
// with compare masks and blends, so every lane is bitwise the scalar SSE2
// code the compiler emits for the Go loop.

// evalRowAVX2 is evalRow on faces [lo, lo+n), n ≥ 4, four at a time. When
// 4 does not divide n, the last four faces of the row are evaluated
// again, so the staged h and c_s² (gamma ≤ 0) need n a multiple of 4.
//
//go:noescape
func evalRowAVX2(f *Faces, q *[state.NComp][]float64, lo, n int, gamma, gog float64, d state.Direction)

// hllcRowAVX2 is hllcRow on faces [lo, lo+n), n ≥ 4, four at a time; when
// 4 does not divide n, the last four faces are combined again.
//
//go:noescape
func hllcRowAVX2(l, r *Faces, fx *[state.NComp][]float64, lo, n int, d state.Direction)

// hllRowAVX2 is hllRow on faces [lo, lo+n), n ≥ 4, four at a time; when
// 4 does not divide n, the last four faces are combined again.
//
//go:noescape
func hllRowAVX2(l, r *Faces, fx *[state.NComp][]float64, lo, n int)

// evalRowVec runs evalRowAVX2 on faces [lo, hi) of rows of at least four
// faces, and returns where the Go loop takes over: hi for the Γ-law gas,
// the end of the last whole vector for a staged closure.
func evalRowVec(f *Faces, q *[state.NComp][]float64, gamma float64, d state.Direction, lo, hi int) int {
	n := hi - lo
	if n < 4 || lo < 0 {
		return lo
	}
	if !(gamma > 0) {
		n &^= 3
	}
	f.check(hi)
	_, _, _, _, _ = q[state.IRho][hi-1], q[state.IVx][hi-1], q[state.IVy][hi-1], q[state.IVz][hi-1], q[state.IP][hi-1]
	evalRowAVX2(f, q, lo, n, gamma, gamma/(gamma-1), d)
	return lo + n
}

// hllcRowVec runs hllcRowAVX2 on faces [lo, hi) of rows of at least four
// faces, and returns where the Go loop takes over.
func hllcRowVec(l, r *Faces, fx *[state.NComp][]float64, d state.Direction, lo, hi int) int {
	if hi-lo < 4 || lo < 0 {
		return lo
	}
	l.check(hi)
	r.check(hi)
	_, _, _, _, _ = fx[state.ID][hi-1], fx[state.ISx][hi-1], fx[state.ISy][hi-1], fx[state.ISz][hi-1], fx[state.ITau][hi-1]
	hllcRowAVX2(l, r, fx, lo, hi-lo, d)
	return hi
}

// hllRowVec runs hllRowAVX2 on faces [lo, hi) of rows of at least four
// faces, and returns where the Go loop takes over.
func hllRowVec(l, r *Faces, fx *[state.NComp][]float64, lo, hi int) int {
	if hi-lo < 4 || lo < 0 {
		return lo
	}
	l.check(hi)
	r.check(hi)
	_, _, _, _, _ = fx[state.ID][hi-1], fx[state.ISx][hi-1], fx[state.ISy][hi-1], fx[state.ISz][hi-1], fx[state.ITau][hi-1]
	hllRowAVX2(l, r, fx, lo, hi-lo)
	return hi
}

// check panics, as the Go loops do, unless every slab holds face hi−1.
func (f *Faces) check(hi int) {
	_, _, _, _, _, _, _ = f.D[hi-1], f.Sx[hi-1], f.Sy[hi-1], f.Sz[hi-1], f.Tau[hi-1], f.FD[hi-1], f.FSx[hi-1]
	_, _, _, _, _, _, _ = f.FSy[hi-1], f.FSz[hi-1], f.FTau[hi-1], f.Vd[hi-1], f.P[hi-1], f.Lm[hi-1], f.Lp[hi-1]
}
