//go:build !amd64

package recon

// Off amd64 there are no vector bodies: the Go loops run every cell.

func mcEdgesVec(um, u0, up, lo, hi []float64) { mcEdges(um, u0, up, lo, hi) }

func ppmEdgesVec(u []float64, base, stride, lines, n int, lo, hi []float64) {
	ppmLines(u, base, stride, lines, n, lo, hi)
}
