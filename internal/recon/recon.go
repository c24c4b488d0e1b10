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
// Every scheme is one per-cell edge kernel, Edges: from the 2·Ghost()−1
// stencil lines around a line of cells it writes each cell's left and
// right edge, lane by lane, with no state carried along a line.
// Reconstruct is a row adapter over it (the stencil lines are shifted
// windows of the row), and the solver's y and z sweeps call it on face
// planes read in place, so a face state is the same arithmetic on the
// same operands whichever way the cells were laid out. Where the CPU has
// AVX2 (simd.AVX2), the PLM-MC and PPM kernels run 4-lane assembly
// bodies (edges_amd64.s) on lines of four or more lanes, bitwise their
// Go loops, which stay as the portable path and the oracle.
//
// The solver reconstructs primitive variables componentwise, the standard
// choice for SRHD production codes (characteristic reconstruction costs a
// full eigendecomposition per face for marginal gains with HLL-family
// solvers).
package recon

import (
	"fmt"
	"math"

	"rhsc/internal/simd"
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
	// Edges is the scheme's edge kernel over lines ≥ 1 cell lines of
	// n = len(lo)/lines lanes. Lane i of line q is the cell
	// u[base + q·stride + i], and its neighbours m cells away along the
	// sweep are m·stride further on either side, so line q+1 is the
	// line above line q. It writes the cell's left edge lo[q·n + i], the
	// right state of its lower face, and its right edge hi[q·n + i], the
	// left state of its upper face; hi must be at least as long as lo.
	Edges(u []float64, base, stride, lines int, lo, hi []float64)
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

// rowEdges is Reconstruct over an edge kernel: the cells g−1 … n−g own
// faces [g, n−g], and run as one line whose stencil lines are shifted
// windows of the row (stride 1). Cell g−1's left edge and cell n−g's
// right edge land in the slots just outside [g, n−g]; those slots are
// restored, so no face outside the range changes.
func rowEdges(u, uL, uR []float64, g int, edges func(u []float64, base, stride, lines int, lo, hi []float64)) {
	n := checkSizes(u, uL, uR, g)
	lo, hi := uR[g-1:n-g+1], uL[g:n-g+2]
	keepLo, keepHi := lo[0], hi[len(hi)-1]
	edges(u, g-1, 1, 1, lo, hi)
	lo[0], hi[len(hi)-1] = keepLo, keepHi
}

// perLine runs the one-line kernel line over each of lines cell lines.
func perLine(u []float64, base, stride, lines int, lo, hi []float64,
	line func(u []float64, base, stride int, lo, hi []float64)) {

	n := len(lo) / lines
	for q := range lines {
		line(u, base+q*stride, stride, lo[q*n:][:n], hi[q*n:][:n])
	}
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
func (p PCM) Reconstruct(u, uL, uR []float64) { rowEdges(u, uL, uR, 1, p.Edges) }

// Edges implements Scheme: both edges are the cell average.
func (PCM) Edges(u []float64, base, stride, lines int, lo, hi []float64) {
	perLine(u, base, stride, lines, lo, hi, pcmLine)
}

func pcmLine(u []float64, base, _ int, lo, hi []float64) {
	c := u[base:][:len(lo)]
	copy(lo, c)
	copy(hi[:len(c)], c)
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

// Reconstruct implements Scheme.
func (p PLM) Reconstruct(u, uL, uR []float64) { rowEdges(u, uL, uR, 2, p.Edges) }

// Edges implements Scheme: the cell's limited slope s gives the edges
// u ∓ s/2. The limiter is resolved once per line, and each has its own
// loop around an inlined slope (mcSlope, minmodSlope, vanLeerSlope), so a
// cell makes no call. Where the CPU has AVX2, an MC line of four or more
// cells runs the vector body (mcEdgesVec), bitwise the Go loop.
func (p PLM) Edges(u []float64, base, stride, lines int, lo, hi []float64) {
	perLine(u, base, stride, lines, lo, hi, p.line)
}

// line is Edges on one cell line.
func (p PLM) line(u []float64, base, stride int, lo, hi []float64) {
	n := len(lo)
	um, u0, up, hi := u[base-stride:][:n], u[base:][:n], u[base+stride:][:n], hi[:n]
	switch p.Lim {
	case MonotonizedCentral:
		if simd.AVX2 && n >= 4 {
			mcEdgesVec(um, u0, up, lo, hi)
			return
		}
		mcEdges(um, u0, up, lo, hi)
	case Minmod:
		for i, c := range u0 {
			s := minmodSlope(c-um[i], up[i]-c)
			lo[i], hi[i] = c-0.5*s, c+0.5*s
		}
	case VanLeer:
		for i, c := range u0 {
			s := vanLeerSlope(c-um[i], up[i]-c)
			lo[i], hi[i] = c-0.5*s, c+0.5*s
		}
	default:
		panic("recon: unknown limiter")
	}
}

// mcEdges is the Go body of the MC edge kernel over equal-length lines:
// the cells u0, their lower neighbours um and upper neighbours up. It is
// the portable path and the vector body's oracle.
func mcEdges(um, u0, up, lo, hi []float64) {
	um, up, lo, hi = um[:len(u0)], up[:len(u0)], lo[:len(u0)], hi[:len(u0)]
	for i, c := range u0 {
		s := mcSlope(c-um[i], up[i]-c)
		lo[i], hi[i] = c-0.5*s, c+0.5*s
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

// Reconstruct implements Scheme.
func (p PPM) Reconstruct(u, uL, uR []float64) { rowEdges(u, uL, uR, 3, p.Edges) }

// Edges implements Scheme: a cell's parabola runs through the
// fourth-order interface values (CW84 eq. 1.6)
// u_{j+1/2} = (u_j + u_{j+1})/2 − (δ_{j+1} − δ_j)/6 at its two faces,
// built from the limited slopes δ (CW84 eq. 1.8) of the cell and its two
// neighbours, and ppmEdges monotonises it. Per block of lanes it stages
// the slope of the current line and the interface value below it, and
// replaces both with the next line's as it goes: on a plane each is
// formed once per cell, while a row (one line) forms its neighbours'
// slopes and lower interface values as well. A cell makes no call.
// Bitwise the slopes → interface values → per-face-side parabola passes
// (TestPPMMatchesReference). Where the CPU has AVX2, lines of four or
// more lanes run the vector body (ppmEdgesVec), bitwise the Go loops.
func (PPM) Edges(u []float64, base, stride, lines int, lo, hi []float64) {
	n := len(lo) / lines
	if simd.AVX2 && n >= 4 {
		ppmEdgesVec(u, base, stride, lines, n, lo, hi)
		return
	}
	ppmLines(u, base, stride, lines, n, lo, hi)
}

// ppmLines is the Go body of the PPM edge kernel on lines of n lanes:
// the portable path and the vector body's oracle.
func ppmLines(u []float64, base, stride, lines, n int, lo, hi []float64) {
	var sl, fc [ppmBlock]float64
	for i0 := 0; i0 < n; i0 += ppmBlock {
		w := min(ppmBlock, n-i0)
		b := base + i0
		// The slope of line 0 and the interface value below it.
		um2, um1, u0, up1 := u[b-2*stride:][:w], u[b-stride:][:w], u[b:][:w], u[b+stride:][:w]
		s, f := sl[:w], fc[:w]
		for i, c := range u0 {
			a, bm, d := um2[i], um1[i], up1[i]
			sm := ppmSlope(bm-a, c-bm, c-a)
			s[i] = ppmSlope(c-bm, d-c, d-bm)
			f[i] = 0.5*(bm+c) - (s[i]-sm)/6
		}
		for q := range lines {
			lb := b + q*stride
			c0, c1, c2 := u[lb:][:w], u[lb+stride:][:w], u[lb+2*stride:][:w]
			l, h := lo[q*n+i0:][:w], hi[q*n+i0:][:w]
			for i, c := range c0 {
				d, e := c1[i], c2[i]
				sp := ppmSlope(d-c, e-d, e-c)
				fp := 0.5*(c+d) - (sp-s[i])/6
				l[i], h[i] = ppmEdges(f[i], fp, c)
				s[i], f[i] = sp, fp
			}
		}
	}
}

// ppmBlock is the number of lanes PPM.Edges stages at a time.
const ppmBlock = 64

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
func (w WENO5) Reconstruct(u, uL, uR []float64) { rowEdges(u, uL, uR, 3, w.Edges) }

// Edges implements Scheme: the right edge from the cell's stencil, the
// left edge from the mirrored one.
func (WENO5) Edges(u []float64, base, stride, lines int, lo, hi []float64) {
	wenoLines(u, base, stride, lines, lo, hi, wenoEdge)
}

// wenoLines is the WENO edge kernel for the edge function edge.
func wenoLines(u []float64, base, stride, lines int, lo, hi []float64,
	edge func(um2, um1, u0, up1, up2 float64) float64) {

	n := len(lo) / lines
	for q := range lines {
		b := base + q*stride
		um2, um1, u0 := u[b-2*stride:][:n], u[b-stride:][:n], u[b:][:n]
		up1, up2 := u[b+stride:][:n], u[b+2*stride:][:n]
		l, h := lo[q*n:][:n], hi[q*n:][:n]
		for i, c := range u0 {
			l[i] = edge(up2[i], up1[i], c, um1[i], um2[i])
			h[i] = edge(um2[i], um1[i], c, up1[i], up2[i])
		}
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
func (w WENOZ) Reconstruct(u, uL, uR []float64) { rowEdges(u, uL, uR, 3, w.Edges) }

// Edges implements Scheme, as WENO5.Edges with the WENO-Z weights.
func (WENOZ) Edges(u []float64, base, stride, lines int, lo, hi []float64) {
	wenoLines(u, base, stride, lines, lo, hi, wenozEdge)
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
