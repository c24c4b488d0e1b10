//go:build !amd64

package riemann

import "rhsc/internal/state"

// Off amd64 there is no vector body: the Go row loops run every face.

func evalRowVec(_ *Faces, _ *[state.NComp][]float64, _ float64, _ state.Direction, lo, _ int) int {
	return lo
}

func hllcRowVec(_, _ *Faces, _ *[state.NComp][]float64, _ state.Direction, lo, _ int) int {
	return lo
}

func hllRowVec(_, _ *Faces, _ *[state.NComp][]float64, lo, _ int) int {
	return lo
}
