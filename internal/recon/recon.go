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
// It inlines, so a row pays three compares and no call.
func checkSizes(u, uL, uR []float64, ghost int) int {
	n := len(u)
	if n < 2*ghost+1 || len(uL) < n+1 || len(uR) < n+1 {
		panic(sizeError{n, min(len(uL), len(uR)), ghost})
	}
	return n
}

// sizeError is checkSizes's panic value.
type sizeError struct{ n, faces, ghost int }

func (e sizeError) Error() string {
	return fmt.Sprintf("recon: row of %d cells with %d face slots; ghost=%d needs ≥ %d cells and n+1 slots",
		e.n, e.faces, e.ghost, 2*e.ghost+1)
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

// Reconstruct implements Scheme. Face i needs the limited slopes of
// cells i−1 and i; the loop carries each cell's slope, its right
// difference (the next cell's left difference) and the two cell values
// across to the next face, so a face loads one cell and evaluates one
// limiter. The limiter is resolved once per row: each has its own loop
// around an inlined slope (mcSlope, minmodSlope, vanLeerSlope), so a
// face makes no call. Bitwise identical to the two-slopes-per-face form
// (TestPLMMatchesReference).
func (p PLM) Reconstruct(u, uL, uR []float64) {
	n := checkSizes(u, uL, uR, 2)
	// Faces 2…n−2; w holds cell i+1 of face i.
	w := u[3:n]
	l, r := uL[2:][:len(w)], uR[2:][:len(w)]
	um1, u0 := u[1], u[2]
	dp := u0 - um1
	switch p.Lim {
	case MonotonizedCentral:
		sPrev := mcSlope(um1-u[0], dp)
		for k, up1 := range w {
			dm := dp
			dp = up1 - u0
			s := mcSlope(dm, dp)
			l[k], r[k] = um1+0.5*sPrev, u0-0.5*s
			sPrev, um1, u0 = s, u0, up1
		}
	case Minmod:
		sPrev := minmodSlope(um1-u[0], dp)
		for k, up1 := range w {
			dm := dp
			dp = up1 - u0
			s := minmodSlope(dm, dp)
			l[k], r[k] = um1+0.5*sPrev, u0-0.5*s
			sPrev, um1, u0 = s, u0, up1
		}
	case VanLeer:
		sPrev := vanLeerSlope(um1-u[0], dp)
		for k, up1 := range w {
			dm := dp
			dp = up1 - u0
			s := vanLeerSlope(dm, dp)
			l[k], r[k] = um1+0.5*sPrev, u0-0.5*s
			sPrev, um1, u0 = s, u0, up1
		}
	default:
		panic("recon: unknown limiter")
	}
}

// mcSlope is the monotonized-central limiter minmod(2dm, 2dp, (dm+dp)/2)
// with the sign analysis folded into two comparisons. When dm and dp are
// both strictly positive so are all three candidates — their sum cannot
// cancel — and the builtin min over positive non-NaN operands is the
// nested math.Min of the three-argument minmod exactly (ties are the
// same value, hence the same bits); negating a float and multiplying by
// ±1 are exact, so the negative branch mirrors it; NaN and mixed or zero
// signs fall through to the positive zero the minmod returns
// (TestMCSlopeBitwise). The sign branches stay: on quiescent data they
// predict perfectly, where a branch-free form pays every min on every
// face. The builtin keeps the body inside the inliner's budget
// (scripts/inline.sh).
func mcSlope(dm, dp float64) float64 {
	if dm > 0 && dp > 0 {
		return min(2*dm, 2*dp, 0.5*(dm+dp))
	}
	if dm < 0 && dp < 0 {
		return -min(-(2 * dm), -(2 * dp), -(0.5 * (dm + dp)))
	}
	return 0
}

// minmodSlope is the classical minmod limiter: zero when the one-sided
// differences differ in sign, otherwise the one of smaller magnitude.
func minmodSlope(dm, dp float64) float64 {
	if dm*dp <= 0 {
		return 0
	}
	if math.Abs(dm) < math.Abs(dp) {
		return dm
	}
	return dp
}

// vanLeerSlope is the harmonic-mean (van Leer) limiter, in the form
// 2/(1/dm + 1/dp) that cannot overflow for large slope magnitudes.
func vanLeerSlope(dm, dp float64) float64 {
	if dm == 0 || dp == 0 || (dm > 0) != (dp > 0) {
		return 0
	}
	return 2 / (1/dm + 1/dp)
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

// Reconstruct implements Scheme. One pass over faces 3…n−3: cell i's
// monotonised parabola gives the right state of face i (its left edge)
// and, one face later, the left state of face i+1 (its right edge). Each
// limited slope, fourth-order interface value, right edge and the last
// cell values are carried to the next face, so a face loads one cell and
// makes no call. Cell 2, which gives only face 3's left state, is peeled
// into the prologue; the last cell's right edge (face n−2) is dropped.
// Bitwise identical to the slopes → interface values → per-face-side
// parabola passes (TestPPMMatchesReference).
func (PPM) Reconstruct(u, uL, uR []float64) {
	n := checkSizes(u, uL, uR, 3)

	// Limited slopes (CW84 eq. 1.8) of cells 1…3, the fourth-order
	// interface values (CW84 eq. 1.6)
	// u_{j+1/2} = (u_j + u_{j+1})/2 − (δ_{j+1} − δ_j)/6 at faces 2 and 3,
	// and cell 2's right edge.
	d1, d2, dp := u[2]-u[1], u[3]-u[2], u[4]-u[3]
	s1 := ppmSlope(u[1]-u[0], d1, u[2]-u[0])
	s2 := ppmSlope(d1, d2, u[3]-u[1])
	s := ppmSlope(d2, dp, u[4]-u[2])
	fL := 0.5*(u[2]+u[3]) - (s-s2)/6
	_, aR := ppmEdges(0.5*(u[1]+u[2])-(s2-s1)/6, fL, u[2])

	// Face i = k+3 reads cell i+2 = w[k].
	u0, up1 := u[3], u[4]
	w := u[5:n]
	l, r := uL[3:][:len(w)], uR[3:][:len(w)]
	for k, up2 := range w {
		dm := dp
		dp = up2 - up1
		sNext := ppmSlope(dm, dp, up2-u0)
		fR := 0.5*(u0+up1) - (sNext-s)/6
		l[k] = aR
		r[k], aR = ppmEdges(fL, fR, u0)
		s, fL, u0, up1 = sNext, fR, up1, up2
	}
}

// ppmSlope is the limited slope of a cell with left difference dm, right
// difference dp and centred difference dc = u_{j+1} − u_{j−1}:
// sign(d)·min(2|dm|, 2|dp|, |d|) with d = dc/2, zero at an extremum. The
// sign is applied by branch — m, −m, or 0·m, which keeps a NaN or
// infinite m a NaN and a −0 a −0 as sign(d)·m does — and the builtin min
// is the nested math.Min up to NaN payload, so the body fits the
// inliner's budget 3 units under it (scripts/inline.sh): one more
// operation puts a call back into every cell.
func ppmSlope(dm, dp, dc float64) float64 {
	if dm*dp <= 0 {
		return 0
	}
	d := 0.5 * dc
	m := min(2*absf(dm), 2*absf(dp), absf(d))
	if d > 0 {
		return m
	}
	if d < 0 {
		return -m
	}
	return 0 * m
}

// ppmEdges returns the edges of a cell's parabola with average u0 and
// interface values aL, aR after the monotonisation of CW84 eq. 1.10:
// flat at an extremum, and the far edge pulled in where the parabola
// would overshoot. Δa = aR − aL, its product with the average's offset
// from the midpoint and Δa²/6 are formed once, after the extremum test;
// negation is exact, so q < −t is the reference's q < −Δa·Δa/6.
func ppmEdges(aL, aR, u0 float64) (float64, float64) {
	if (aR-u0)*(u0-aL) <= 0 {
		return u0, u0
	}
	da := aR - aL
	q := da * (u0 - 0.5*(aL+aR))
	t := da * da / 6
	if q > t {
		return 3*u0 - 2*aR, aR
	}
	if q < -t {
		return aL, 3*u0 - 2*aL
	}
	return aL, aR
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
