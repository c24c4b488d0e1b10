// Package recon implements the one-dimensional reconstruction schemes of
// the HRSC solver: piecewise-constant (PCM), piecewise-linear with TVD
// limiters (PLM), the piecewise-parabolic method (PPM, Colella & Woodward
// 1984), and fifth-order WENO (Jiang & Shu 1996).
//
// A scheme turns cell-average data u[0..n) into left/right states at cell
// faces. Face i sits between cells i−1 and i; uL[i] is the value
// extrapolated from cell i−1 (the left side of the face) and uR[i] the
// value from cell i. Reconstruct fills faces i ∈ [Ghost(), n−Ghost()];
// callers provide enough ghost cells that this range covers every face of
// the physical domain.
//
// The solver reconstructs primitive variables componentwise, the standard
// choice for SRHD production codes (characteristic reconstruction costs a
// full eigendecomposition per face for marginal gains with HLL-family
// solvers).
package recon

import (
	"fmt"
	"math"

	"rhsc/internal/mathutil"
)

// Scheme is a one-dimensional face reconstruction.
type Scheme interface {
	// Name identifies the scheme in output headers and benchmarks.
	Name() string
	// Ghost returns the number of ghost cells the scheme needs on each side.
	Ghost() int
	// Order returns the formal order of accuracy on smooth data.
	Order() int
	// Reconstruct fills uL[i], uR[i] for faces i in [Ghost(), n−Ghost()]
	// from cell data u of length n. uL and uR must have length ≥ n+1.
	Reconstruct(u, uL, uR []float64)
}

// checkSizes panics when the face arrays cannot hold the reconstruction.
func checkSizes(u, uL, uR []float64, ghost int) int {
	n := len(u)
	if n < 2*ghost+1 {
		panic(fmt.Sprintf("recon: row of %d cells too short for ghost=%d", n, ghost))
	}
	if len(uL) < n+1 || len(uR) < n+1 {
		panic("recon: face arrays shorter than n+1")
	}
	return n
}

// PCM is the first-order piecewise-constant (Godunov) reconstruction.
type PCM struct{}

// Name implements Scheme.
func (PCM) Name() string { return "pcm" }

// Ghost implements Scheme.
func (PCM) Ghost() int { return 1 }

// Order implements Scheme.
func (PCM) Order() int { return 1 }

// Reconstruct implements Scheme.
func (PCM) Reconstruct(u, uL, uR []float64) {
	n := checkSizes(u, uL, uR, 1)
	for i := 1; i <= n-1; i++ {
		uL[i] = u[i-1]
		uR[i] = u[i]
	}
}

// Limiter selects the TVD slope limiter used by PLM.
type Limiter int

// Supported PLM limiters.
const (
	Minmod Limiter = iota
	MonotonizedCentral
	VanLeer
)

// String implements fmt.Stringer.
func (l Limiter) String() string {
	switch l {
	case Minmod:
		return "minmod"
	case MonotonizedCentral:
		return "mc"
	case VanLeer:
		return "vanleer"
	}
	return fmt.Sprintf("Limiter(%d)", int(l))
}

// PLM is second-order piecewise-linear reconstruction with a TVD limiter.
type PLM struct {
	Lim Limiter
}

// Name implements Scheme.
func (p PLM) Name() string { return "plm-" + p.Lim.String() }

// Ghost implements Scheme.
func (PLM) Ghost() int { return 2 }

// Order implements Scheme.
func (PLM) Order() int { return 2 }

func (p PLM) slope(dm, dp float64) float64 {
	switch p.Lim {
	case Minmod:
		return mathutil.Minmod(dm, dp)
	case MonotonizedCentral:
		return mathutil.MC(dm, dp)
	case VanLeer:
		return mathutil.VanLeer(dm, dp)
	}
	panic("recon: unknown limiter")
}

// Reconstruct implements Scheme. Face i needs the limited slopes of
// cells i−1 and i; the loop carries each cell's slope (and its right
// difference, which is the next cell's left difference) across to the
// next face instead of recomputing it, halving the limiter evaluations
// of the naive two-slopes-per-face form. The MC limiter additionally
// uses the branch-reduced mcSlope. Both transformations are
// bitwise-neutral; TestPLMMatchesReference locks that in.
func (p PLM) Reconstruct(u, uL, uR []float64) {
	n := checkSizes(u, uL, uR, 2)
	if p.Lim == MonotonizedCentral {
		dp := u[2] - u[1]
		sPrev := mcSlope(u[1]-u[0], dp)
		for i := 2; i <= n-2; i++ {
			dm := dp
			dp = u[i+1] - u[i]
			s := mcSlope(dm, dp)
			uL[i] = u[i-1] + 0.5*sPrev
			uR[i] = u[i] - 0.5*s
			sPrev = s
		}
		return
	}
	dp := u[2] - u[1]
	sPrev := p.slope(u[1]-u[0], dp)
	for i := 2; i <= n-2; i++ {
		dm := dp
		dp = u[i+1] - u[i]
		s := p.slope(dm, dp)
		uL[i] = u[i-1] + 0.5*sPrev
		uR[i] = u[i] - 0.5*s
		sPrev = s
	}
}

// mcSlope is mathutil.MC(dm, dp) = minmod3(2dm, 2dp, (dm+dp)/2) with the
// sign analysis folded into two comparisons. Bitwise identity with the
// mathutil form (TestMCSlopeBitwise): when dm and dp are both strictly
// positive so are all three candidates — their sum cannot cancel — and
// the builtin min over positive non-NaN operands matches the nested
// math.Min exactly (ties are the same value, hence the same bits);
// negating a float and multiplying by ±1 are exact, so the negative
// branch mirrors sa = −1; NaN and mixed or zero signs fall through to
// the same positive zero Minmod3 returns. The sign branches stay: on
// quiescent data they predict perfectly, where a branch-free form pays
// every min on every face. The builtin keeps the body inside the
// inliner's budget, so Reconstruct makes no call per face.
func mcSlope(dm, dp float64) float64 {
	if dm > 0 && dp > 0 {
		return min(2*dm, 2*dp, 0.5*(dm+dp))
	}
	if dm < 0 && dp < 0 {
		return -min(-(2 * dm), -(2 * dp), -(0.5 * (dm + dp)))
	}
	return 0
}

// PPM is the piecewise-parabolic method of Colella & Woodward (1984) with
// the standard monotonization (no contact steepening or flattening: those
// are shock-tube cosmetics the HLLC solver does not need).
type PPM struct{}

// Name implements Scheme.
func (PPM) Name() string { return "ppm" }

// Ghost implements Scheme.
func (PPM) Ghost() int { return 3 }

// Order implements Scheme.
func (PPM) Order() int { return 3 }

// Reconstruct implements Scheme. One pass over cells 2…n−3: cell j's
// monotonised parabola gives the right state of face j (its left edge) and
// the left state of face j+1 (its right edge), so each limited slope, each
// fourth-order interface value and each parabola is computed once and
// carried to the next cell, with no scratch buffer. Bitwise identical to
// the slopes → interface values → per-face-side parabola passes it
// replaced (TestPPMMatchesReference).
func (PPM) Reconstruct(u, uL, uR []float64) {
	n := checkSizes(u, uL, uR, 3)

	// Limited slopes (CW84 eq. 1.8) of cells 1 and 2, and the fourth-order
	// interface value (CW84 eq. 1.6) at face 2:
	// u_{j+1/2} = (u_j + u_{j+1})/2 − (δ_{j+1} − δ_j)/6.
	dp := u[2] - u[1]
	sPrev := ppmSlope(u[1]-u[0], dp, u[2]-u[0])
	dm := dp
	dp = u[3] - u[2]
	s := ppmSlope(dm, dp, u[3]-u[1])
	fL := 0.5*(u[1]+u[2]) - (s-sPrev)/6

	for j := 2; j <= n-3; j++ {
		dm = dp
		dp = u[j+2] - u[j+1]
		sNext := ppmSlope(dm, dp, u[j+2]-u[j])
		fR := 0.5*(u[j]+u[j+1]) - (sNext-s)/6

		// Parabola edges of cell j with monotonization (CW84 eq. 1.10).
		aL, aR, u0 := fL, fR, u[j]
		switch {
		case (aR-u0)*(u0-aL) <= 0:
			aL, aR = u0, u0
		case (aR-aL)*(u0-0.5*(aL+aR)) > (aR-aL)*(aR-aL)/6:
			aL = 3*u0 - 2*aR
		case (aR-aL)*(u0-0.5*(aL+aR)) < -(aR-aL)*(aR-aL)/6:
			aR = 3*u0 - 2*aL
		}
		// Faces 3…n−3 are filled: cell 2 has no face-2 right state to give,
		// cell n−3 no face-(n−2) left state.
		if j >= 3 {
			uR[j] = aL
		}
		if j <= n-4 {
			uL[j+1] = aR
		}
		s, fL = sNext, fR
	}
}

// ppmSlope is the limited slope of a cell with left difference dm, right
// difference dp and centred difference dc = u_{j+1} − u_{j−1}.
func ppmSlope(dm, dp, dc float64) float64 {
	if dm*dp <= 0 {
		return 0
	}
	d := 0.5 * dc
	return mathutil.Sign(d) * mathutil.Min3(2*absf(dm), 2*absf(dp), absf(d))
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// WENO5 is the fifth-order weighted essentially non-oscillatory scheme of
// Jiang & Shu (1996) with the classical smoothness indicators and
// ε = 10⁻⁶ regularisation.
type WENO5 struct{}

// Name implements Scheme.
func (WENO5) Name() string { return "weno5" }

// Ghost implements Scheme.
func (WENO5) Ghost() int { return 3 }

// Order implements Scheme.
func (WENO5) Order() int { return 5 }

const wenoEps = 1e-6

// wenoEdge reconstructs the value at the right edge of the 5-point stencil
// centre: inputs are u[j−2], u[j−1], u[j], u[j+1], u[j+2] and the return is
// u at face j+1/2 seen from cell j.
func wenoEdge(um2, um1, u0, up1, up2 float64) float64 {
	p0 := (2*um2 - 7*um1 + 11*u0) / 6
	p1 := (-um1 + 5*u0 + 2*up1) / 6
	p2 := (2*u0 + 5*up1 - up2) / 6

	b0 := 13.0/12.0*(um2-2*um1+u0)*(um2-2*um1+u0) + 0.25*(um2-4*um1+3*u0)*(um2-4*um1+3*u0)
	b1 := 13.0/12.0*(um1-2*u0+up1)*(um1-2*u0+up1) + 0.25*(um1-up1)*(um1-up1)
	b2 := 13.0/12.0*(u0-2*up1+up2)*(u0-2*up1+up2) + 0.25*(3*u0-4*up1+up2)*(3*u0-4*up1+up2)

	a0 := 0.1 / ((wenoEps + b0) * (wenoEps + b0))
	a1 := 0.6 / ((wenoEps + b1) * (wenoEps + b1))
	a2 := 0.3 / ((wenoEps + b2) * (wenoEps + b2))
	return (a0*p0 + a1*p1 + a2*p2) / (a0 + a1 + a2)
}

// Reconstruct implements Scheme.
func (WENO5) Reconstruct(u, uL, uR []float64) {
	n := checkSizes(u, uL, uR, 3)
	for i := 3; i <= n-3; i++ {
		j := i - 1
		// Left state: right edge of cell j.
		uL[i] = wenoEdge(u[j-2], u[j-1], u[j], u[j+1], u[j+2])
		// Right state: left edge of cell i = mirrored stencil.
		uR[i] = wenoEdge(u[i+2], u[i+1], u[i], u[i-1], u[i-2])
	}
}

// WENOZ is the improved-weight WENO-Z scheme of Borges, Carmona, Costa &
// Don (2008): the classical stencils and smoothness indicators of WENO5
// with weights built from the global indicator τ₅ = |β₀ − β₂|, which
// restores fifth order at critical points and sharpens discontinuities
// relative to the Jiang–Shu weights.
type WENOZ struct{}

// Name implements Scheme.
func (WENOZ) Name() string { return "wenoz" }

// Ghost implements Scheme.
func (WENOZ) Ghost() int { return 3 }

// Order implements Scheme.
func (WENOZ) Order() int { return 5 }

const wenozEps = 1e-40

// wenozEdge mirrors wenoEdge but with the Borges et al. (2008) weights.
func wenozEdge(um2, um1, u0, up1, up2 float64) float64 {
	p0 := (2*um2 - 7*um1 + 11*u0) / 6
	p1 := (-um1 + 5*u0 + 2*up1) / 6
	p2 := (2*u0 + 5*up1 - up2) / 6

	b0 := 13.0/12.0*(um2-2*um1+u0)*(um2-2*um1+u0) + 0.25*(um2-4*um1+3*u0)*(um2-4*um1+3*u0)
	b1 := 13.0/12.0*(um1-2*u0+up1)*(um1-2*u0+up1) + 0.25*(um1-up1)*(um1-up1)
	b2 := 13.0/12.0*(u0-2*up1+up2)*(u0-2*up1+up2) + 0.25*(3*u0-4*up1+up2)*(3*u0-4*up1+up2)

	tau5 := math.Abs(b0 - b2)
	a0 := 0.1 * (1 + tau5/(b0+wenozEps))
	a1 := 0.6 * (1 + tau5/(b1+wenozEps))
	a2 := 0.3 * (1 + tau5/(b2+wenozEps))
	return (a0*p0 + a1*p1 + a2*p2) / (a0 + a1 + a2)
}

// Reconstruct implements Scheme.
func (WENOZ) Reconstruct(u, uL, uR []float64) {
	n := checkSizes(u, uL, uR, 3)
	for i := 3; i <= n-3; i++ {
		j := i - 1
		uL[i] = wenozEdge(u[j-2], u[j-1], u[j], u[j+1], u[j+2])
		uR[i] = wenozEdge(u[i+2], u[i+1], u[i], u[i-1], u[i-2])
	}
}

// ByName returns the scheme registered under name. Supported names:
// "pcm", "plm" (alias "plm-mc"), "plm-minmod", "plm-vanleer", "ppm",
// "weno5", "wenoz".
func ByName(name string) (Scheme, error) {
	switch name {
	case "pcm":
		return PCM{}, nil
	case "plm", "plm-mc":
		return PLM{Lim: MonotonizedCentral}, nil
	case "plm-minmod":
		return PLM{Lim: Minmod}, nil
	case "plm-vanleer":
		return PLM{Lim: VanLeer}, nil
	case "ppm":
		return PPM{}, nil
	case "weno5":
		return WENO5{}, nil
	case "wenoz":
		return WENOZ{}, nil
	}
	return nil, fmt.Errorf("recon: unknown scheme %q", name)
}

// All returns every scheme, for sweep-style benchmarks.
func All() []Scheme {
	return []Scheme{
		PCM{},
		PLM{Lim: Minmod},
		PLM{Lim: MonotonizedCentral},
		PLM{Lim: VanLeer},
		PPM{},
		WENO5{},
		WENOZ{},
	}
}
