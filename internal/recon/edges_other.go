//go:build !amd64

package recon

// Off amd64 there is no vector body: the Go loop runs every cell.
func mcEdgesVec(um, u0, up, lo, hi []float64) { mcEdges(um, u0, up, lo, hi) }
