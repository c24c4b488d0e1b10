// Package simd holds the one CPU feature switch of the hand-written
// vector kernels: the AVX2 face evaluation and HLL and HLLC combines in
// package riemann, and the PLM-MC and PPM edge kernels in package recon.
// Every kernel reads AVX2, so a test that turns the vector bodies off
// turns all of them off.
package simd

// Path names the path the vector kernels take on this CPU: "avx2" for
// the assembly, "go" for the Go loops.
func Path() string {
	if AVX2 {
		return "avx2"
	}
	return "go"
}
