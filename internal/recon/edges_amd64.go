package recon

// mcEdgesAVX2 is mcEdges on lines of n = len(u0) ≥ 4 cells, four at a
// time (edges_amd64.s); when 4 does not divide n, the last four cells run
// again. The other lines must hold n cells and must not alias lo or hi.
//
//go:noescape
func mcEdgesAVX2(um, u0, up, lo, hi []float64)

// mcEdgesVec runs the AVX2 body on lines of at least four cells.
func mcEdgesVec(um, u0, up, lo, hi []float64) {
	n := len(u0)
	_, _, _, _ = um[n-1], up[n-1], lo[n-1], hi[n-1]
	mcEdgesAVX2(um, u0, up, lo, hi)
}

// ppmBlockAVX2 is PPM.Edges's Go loop over one block of w lanes,
// 4 ≤ w ≤ ppmBlock, four lanes at a time (edges_amd64.s), with s and f
// its staging arrays; when 4 does not divide w, the block's last four
// lanes run again. u starts two lines below the block's first line,
// stride apart; line q's edges go to lo and hi at q·n, which must not
// alias u.
//
//go:noescape
func ppmBlockAVX2(u []float64, stride, lines, n, w int, lo, hi []float64, s, f *[ppmBlock]float64)

// ppmEdgesVec runs the AVX2 body on lines of n ≥ 4 lanes, a block of at
// most ppmBlock lanes at a time, after the bounds checks the Go loop
// makes. A last block of fewer than four lanes starts four lanes before
// the end and re-runs lanes of the block before it.
func ppmEdgesVec(u []float64, base, stride, lines, n int, lo, hi []float64) {
	_, _ = lo[lines*n-1], hi[lines*n-1]
	u = u[base-2*stride : base+(lines+1)*stride+n]
	var sl, fc [ppmBlock]float64
	for i0 := 0; i0 < n; i0 += ppmBlock {
		i0 = min(i0, n-4)
		ppmBlockAVX2(u[i0:], stride, lines, n, min(ppmBlock, n-i0), lo[i0:], hi[i0:], &sl, &fc)
	}
}
