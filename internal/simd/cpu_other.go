//go:build !amd64

package simd

// AVX2 is false off amd64: the Go loops run every lane.
var AVX2 = false
