// Package mathutil provides small numerical helpers shared across the
// solver: safe floating-point guards, norms, and a bracketing root finder
// used as the fallback path of the conservative-to-primitive solver. The
// slope limiters live with the reconstructions that inline them
// (internal/recon).
package mathutil

import (
	"errors"
	"math"
)

// Tiny is the smallest magnitude treated as nonzero by denominator
// guards. It is far above the subnormal range so that dividing
// by a guarded value can never overflow.
const Tiny = 1e-300

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// L1Norm returns the discrete L1 norm Σ|a_i − b_i| · w. The weight w is the
// cell volume (Δx in 1-D), so the result approximates ∫|a − b| dV.
// It panics if the slices differ in length.
func L1Norm(a, b []float64, w float64) float64 {
	if len(a) != len(b) {
		panic("mathutil: L1Norm slice length mismatch")
	}
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s * w
}

// L2Norm returns the discrete L2 norm sqrt(Σ(a_i − b_i)² · w).
func L2Norm(a, b []float64, w float64) float64 {
	if len(a) != len(b) {
		panic("mathutil: L2Norm slice length mismatch")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s * w)
}

// LInfNorm returns max|a_i − b_i|.
func LInfNorm(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathutil: LInfNorm slice length mismatch")
	}
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// ConvergenceOrder estimates the observed order of accuracy from errors at
// two resolutions: log(eCoarse/eFine) / log(hCoarse/hFine).
func ConvergenceOrder(eCoarse, eFine, hCoarse, hFine float64) float64 {
	if eFine <= 0 || eCoarse <= 0 || hFine <= 0 || hCoarse <= 0 {
		return math.NaN()
	}
	return math.Log(eCoarse/eFine) / math.Log(hCoarse/hFine)
}

// ErrNoBracket is returned by Brent and Bisect when f(a) and f(b) do not
// straddle zero.
var ErrNoBracket = errors.New("mathutil: root not bracketed")

// ErrMaxIter is returned when a root finder exhausts its iteration budget
// before reaching the requested tolerance.
var ErrMaxIter = errors.New("mathutil: maximum iterations exceeded")

// Bisect finds a root of f in [a, b] by bisection to absolute tolerance tol.
// f(a) and f(b) must differ in sign.
func Bisect(f func(float64) float64, a, b, tol float64, maxIter int) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if fa*fb > 0 {
		return 0, ErrNoBracket
	}
	for i := 0; i < maxIter; i++ {
		m := 0.5 * (a + b)
		fm := f(m)
		if fm == 0 || 0.5*(b-a) < tol {
			return m, nil
		}
		if fa*fm < 0 {
			b, fb = m, fm
		} else {
			a, fa = m, fm
		}
	}
	_ = fb
	return 0.5 * (a + b), ErrMaxIter
}

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with bisection safeguards). It converges superlinearly for
// smooth f and never leaves the bracket.
func Brent(f func(float64) float64, a, b, tol float64, maxIter int) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if fa*fb > 0 {
		return 0, ErrNoBracket
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < maxIter; i++ {
		if fb == 0 || math.Abs(b-a) < tol {
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = 0.5 * (a + b)
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d, c, fc = c, b, fb
		if fa*fs < 0 {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return b, ErrMaxIter
}

// Linspace returns n evenly spaced values from a to b inclusive.
// It panics for n < 2.
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		panic("mathutil: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	d := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*d
	}
	out[n-1] = b
	return out
}

// CellCenters returns the n cell-center coordinates of a uniform grid on
// [a, b]: a + (i+1/2)Δx with Δx = (b−a)/n.
func CellCenters(a, b float64, n int) []float64 {
	if n < 1 {
		panic("mathutil: CellCenters needs n >= 1")
	}
	dx := (b - a) / float64(n)
	out := make([]float64, n)
	for i := range out {
		out[i] = a + (float64(i)+0.5)*dx
	}
	return out
}

// IsFiniteAll reports whether every element of xs is finite (not NaN/Inf).
func IsFiniteAll(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
