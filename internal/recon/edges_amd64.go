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
