//go:build !amd64

package riemann

import "rhsc/internal/state"

// haveAVX2 is false off amd64: the Go row loops run every face.
var haveAVX2 = false

func evalRowVec(_ *Faces, _ *[state.NComp][]float64, _ float64, _ state.Direction, lo, _ int) int {
	return lo
}

func hllcRowVec(_, _ *Faces, _ *[state.NComp][]float64, _ state.Direction, lo, _ int) int {
	return lo
}
