package recon

import (
	"math"
	"math/rand"
	"testing"

	"rhsc/internal/simd"
)

// The row loops the edge kernels replaced, kept as oracles beside
// plmReference and ppmReference.

// pcmReference is the Godunov row loop.
func pcmReference(u, uL, uR []float64) {
	for i := 1; i <= len(u)-1; i++ {
		uL[i], uR[i] = u[i-1], u[i]
	}
}

// wenoReference is the WENO row loop for the edge function edge: the
// left state from cell i−1's stencil, the right state from cell i's
// mirrored stencil.
func wenoReference(edge func(um2, um1, u0, up1, up2 float64) float64) func(u, uL, uR []float64) {
	return func(u, uL, uR []float64) {
		for i := 3; i <= len(u)-3; i++ {
			j := i - 1
			uL[i] = edge(u[j-2], u[j-1], u[j], u[j+1], u[j+2])
			uR[i] = edge(u[i+2], u[i+1], u[i], u[i-1], u[i-2])
		}
	}
}

// rowReference returns the row oracle of s.
func rowReference(s Scheme) func(u, uL, uR []float64) {
	switch s := s.(type) {
	case PCM:
		return pcmReference
	case PLM:
		return func(u, uL, uR []float64) { plmReference(s, u, uL, uR) }
	case PPM:
		return ppmReference
	case WENO5:
		return wenoReference(wenoEdge)
	case WENOZ:
		return wenoReference(wenozEdge)
	}
	panic("no row reference for " + s.Name())
}

// sentinel marks slots a kernel must not write.
var sentinel = math.Float64frombits(0x7ff8dead0000beef)

func sentinels(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = sentinel
	}
	return v
}

// edgeRow draws a row of n cells from the ppmRow generator's regimes.
func edgeRow(rng *rand.Rand, n int) []float64 {
	for {
		u := []float64(ppmRow{}.Generate(rng, 0).Interface().(ppmRow))
		if len(u) >= n {
			return u[:n]
		}
	}
}

// Every scheme's edge kernel against its row oracle, bit for bit (NaN as
// a class where the oracle yields NaN). Through Reconstruct, the row
// adapter: faces [G, n−G] match and every other slot keeps its sentinel.
// Through Edges on planes: columns of a lanes-wide plane whose lines lie
// stride > lanes apart, each column the oracle's row, as one call over
// every line and as one call per line; no slot past the lines is
// written. Lane counts 1–67 cover the AVX2 MC body's heads and tails and
// PPM's blocks of 64.
func TestEdgesMatchRowReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, s := range allSchemes() {
		ref, g := rowReference(s), s.Ghost()
		t.Run(s.Name()+"/row", func(t *testing.T) {
			for range 3000 {
				u := edgeRow(rng, 2*g+1+rng.Intn(60))
				n := len(u)
				gotL, gotR, wantL, wantR := sentinels(n+1), sentinels(n+1), sentinels(n+1), sentinels(n+1)
				s.Reconstruct(u, gotL, gotR)
				ref(u, wantL, wantR)
				for i := range gotL {
					inside := i >= g && i <= n-g
					for _, side := range []struct {
						name      string
						got, want float64
					}{{"uL", gotL[i], wantL[i]}, {"uR", gotR[i], wantR[i]}} {
						if inside && !sameFace(side.got, side.want) ||
							!inside && math.Float64bits(side.got) != math.Float64bits(sentinel) {
							t.Fatalf("n=%d %s[%d] = %v, reference %v (row %v)", n, side.name, i, side.got, side.want, u)
						}
					}
				}
			}
		})
		t.Run(s.Name()+"/plane", func(t *testing.T) {
			for lanes := 1; lanes <= 67; lanes++ {
				// cells lines along the sweep, each lanes wide and stride
				// apart, with noise in the gaps between them.
				cells := 2*g + 1 + rng.Intn(6)
				stride := lanes + 1 + rng.Intn(5)
				off := rng.Intn(4)
				plane := make([]float64, off+cells*stride)
				for i := range plane {
					plane[i] = rng.NormFloat64()
				}
				cols := make([][]float64, lanes)
				for i := range cols {
					cols[i] = edgeRow(rng, cells)
					for m, v := range cols[i] {
						plane[off+m*stride+i] = v
					}
				}
				wantL, wantR := make([][]float64, lanes), make([][]float64, lanes)
				for i := range cols {
					wantL[i], wantR[i] = sentinels(cells+1), sentinels(cells+1)
					ref(cols[i], wantL[i], wantR[i])
				}
				// Cell lines g−1 … cells−g, the lines a sweep runs: all in one
				// call, and one call per line.
				first, nlines := g-1, cells-2*g+2
				for _, per := range []int{nlines, 1} {
					for q0 := first; q0 < first+nlines; q0 += per {
						lo, hi := sentinels(per*lanes+3), sentinels(per*lanes+3)
						s.Edges(plane, off+q0*stride, stride, per, lo[:per*lanes], hi)
						for k := 0; k < per; k++ {
							q := q0 + k
							for i := 0; i < lanes; i++ {
								// Cell q's left edge is face q's right state, its
								// right edge face q+1's left state; the oracle
								// fills only faces [g, cells−g].
								if l := lo[k*lanes+i]; q >= g && !sameFace(l, wantR[i][q]) {
									t.Fatalf("lanes=%d lines=%d line %d lane %d: lo %v, reference %v",
										lanes, per, q, i, l, wantR[i][q])
								}
								if h := hi[k*lanes+i]; q+1 <= cells-g && !sameFace(h, wantL[i][q+1]) {
									t.Fatalf("lanes=%d lines=%d line %d lane %d: hi %v, reference %v",
										lanes, per, q, i, h, wantL[i][q+1])
								}
							}
						}
						for i := per * lanes; i < per*lanes+3; i++ {
							if math.Float64bits(lo[i]) != math.Float64bits(sentinel) ||
								math.Float64bits(hi[i]) != math.Float64bits(sentinel) {
								t.Fatalf("lanes=%d lines=%d: slot %d past the lines written", lanes, per, i)
							}
						}
					}
				}
			}
		})
	}
}

// vecCells are the values the vector parity columns draw cells from:
// signed zeros, subnormals, infinities, NaN and extreme magnitudes.
var vecCells = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -1e-310, 0x1p-1022,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 1e308, -1e308, 1e-300}

// vecColumn draws one lane's cells along the sweep, a regime per lane:
// steps of either sign at a scale from 1e-10 to 1e10, a ppmRow column
// (noise, zeros, plateaus, ramps, flat runs, subnormal rows, IEEE
// cells), subnormal steps, or cells from vecCells.
func vecColumn(rng *rand.Rand, cells int) []float64 {
	col := make([]float64, cells)
	c := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(21)-10))
	scale := math.Abs(c) + 1e-300
	switch rng.Intn(6) {
	case 0, 1, 2:
		for m := range col {
			col[m] = c
			step := scale * math.Abs(rng.NormFloat64())
			if rng.Intn(3) == 0 {
				step = -step
			}
			c += step
		}
	case 3:
		return edgeRow(rng, cells)
	case 4: // subnormal steps
		for m := range col {
			col[m] = float64(rng.Intn(7)-3) * 5e-324
		}
	default:
		for m := range col {
			col[m] = vecCells[rng.Intn(len(vecCells))]
		}
	}
	return col
}

// vecKernel is an edge kernel with an AVX2 body: its scheme, the names of
// the branches its Go loop takes, and arm, which reports the branches a
// cell takes from the 2·Ghost()−1 cells of its stencil.
type vecKernel struct {
	s    Scheme
	arms []string
	arm  func(w []float64, hit func(arm int))
}

// vecKernels are the edge kernels with a vector body.
var vecKernels = []vecKernel{
	{PLM{Lim: MonotonizedCentral}, []string{"dm, dp > 0", "dm, dp < 0", "zero"},
		func(w []float64, hit func(int)) {
			switch dm, dp := w[1]-w[0], w[2]-w[1]; {
			case dm > 0 && dp > 0:
				hit(0)
			case dm < 0 && dp < 0:
				hit(1)
			default:
				hit(2)
			}
		}},
	{PPM{}, []string{"slope dm·dp ≤ 0", "slope d > 0", "slope d < 0", "slope 0·m",
		"edges extremum", "edges q > t", "edges q < −t", "edges smooth"},
		func(w []float64, hit func(int)) {
			slope := func(j int) float64 {
				dm, dp, dc := w[j]-w[j-1], w[j+1]-w[j], w[j+1]-w[j-1]
				switch d := 0.5 * dc; {
				case dm*dp <= 0:
					hit(0)
				case d > 0:
					hit(1)
				case d < 0:
					hit(2)
				default:
					hit(3)
				}
				return ppmSlope(dm, dp, dc)
			}
			sm, s0, sp := slope(1), slope(2), slope(3)
			aL := 0.5*(w[1]+w[2]) - (s0-sm)/6
			aR := 0.5*(w[2]+w[3]) - (sp-s0)/6
			u0, da := w[2], aR-aL
			q, t := da*(u0-0.5*(aL+aR)), da*da/6
			switch {
			case (aR-u0)*(u0-aL) <= 0:
				hit(4)
			case q > t:
				hit(5)
			case q < -t:
				hit(6)
			default:
				hit(7)
			}
		}},
}

// The AVX2 edge bodies against the Go loops, one table-driven sweep for
// every kernel that has one: planes of 1–67 and 129–131 lanes (past two
// ppmBlocks) and 1–3 lines, starting at every offset mod 4, through
// Scheme.Edges with the vector bodies on and off, on columns that mix
// ordinary regimes with IEEE cells (±0, subnormals, ±Inf, NaN). Bits
// must match exactly, NaN as a class where the Go loop yields NaN; slots
// outside the lines keep their sentinel; every branch of the kernel must
// be taken in every lane position of a vector.
func TestVectorEdgesMatchGo(t *testing.T) {
	if !simd.AVX2 {
		t.Skip("no AVX2: the Go loops run every cell")
	}
	defer func(old bool) { simd.AVX2 = old }(simd.AVX2)
	var lanes []int
	for n := 1; n <= 67; n++ {
		lanes = append(lanes, n)
	}
	lanes = append(lanes, 129, 130, 131)
	rng := rand.New(rand.NewSource(41))
	for _, k := range vecKernels {
		t.Run(k.s.Name(), func(t *testing.T) {
			hits := make([][4]int, len(k.arms))
			for _, n := range lanes {
				for start := range 4 {
					for lines := 1; lines <= 3; lines++ {
						for range 4 {
							checkVectorEdges(t, rng, k, n, start, lines, hits)
						}
					}
				}
			}
			for arm, byLane := range hits {
				for l, c := range byLane {
					if c == 0 {
						t.Errorf("lane %d never took %q: %v", l, k.arms[arm], byLane)
					}
				}
			}
		})
	}
}

// checkVectorEdges runs k on one plane of lines lines of n lanes, lines
// stride = n+start+1 apart and lane 0 at offset start, so the lanes
// begin at every offset mod 4, and holds the vector body to the Go loop.
// hits counts k's branches by lane position over the whole vectors.
func checkVectorEdges(t *testing.T, rng *rand.Rand, k vecKernel, n, start, lines int, hits [][4]int) {
	t.Helper()
	g := k.s.Ghost()
	cells, stride := lines+2*g-2, n+start+1
	u := sentinels(start + cells*stride)
	cols := make([][]float64, n)
	for i := range cols {
		cols[i] = vecColumn(rng, cells)
		for m, v := range cols[i] {
			u[start+m*stride+i] = v
		}
	}
	// edges[path][side]: path 0 the vector body, 1 the Go loop.
	var edges [2][2][]float64
	for p, vec := range []bool{true, false} {
		simd.AVX2 = vec
		lo, hi := sentinels(start+lines*n+4), sentinels(start+lines*n+4)
		k.s.Edges(u, start+(g-1)*stride, stride, lines, lo[start:start+lines*n], hi[start:])
		edges[p] = [2][]float64{lo, hi}
	}
	simd.AVX2 = true
	for side, name := range []string{"lo", "hi"} {
		vec, ref := edges[0][side], edges[1][side]
		for i := range vec {
			if i < start || i >= start+lines*n {
				if math.Float64bits(vec[i]) != math.Float64bits(sentinel) ||
					math.Float64bits(ref[i]) != math.Float64bits(sentinel) {
					t.Fatalf("n=%d start=%d lines=%d: %s slot %d outside the lines written", n, start, lines, name, i)
				}
				continue
			}
			if !sameFace(vec[i], ref[i]) {
				q, l := (i-start)/n, (i-start)%n
				t.Fatalf("n=%d start=%d lines=%d %s line %d lane %d: avx2 %v (%#x), go %v (%#x); cells %v",
					n, start, lines, name, q, l, vec[i], math.Float64bits(vec[i]), ref[i],
					math.Float64bits(ref[i]), cols[l])
			}
		}
	}
	for i := range n &^ 3 {
		for q := range lines {
			k.arm(cols[i][q:q+2*g-1], func(arm int) { hits[arm][i%4]++ })
		}
	}
}

// blastCells returns lines lines of n lanes, stride apart, of blast-like
// data: plateaus, a smooth flank and a jump that moves across the lanes
// from line to line, no subnormals.
func blastCells(lines, n, stride int) []float64 {
	u := make([]float64, (lines-1)*stride+n)
	for m := range lines {
		for i := range n {
			x := float64(i+m) / float64(n)
			switch {
			case x < 0.3:
				u[m*stride+i] = 1
			case x < 0.6:
				u[m*stride+i] = 1 + 9*math.Sin(3*x)
			default:
				u[m*stride+i] = 0.125
			}
		}
	}
	return u
}

// edgeShape is a call of an edge kernel the benchmarks time: lines lines
// of n lanes, stride apart.
type edgeShape struct {
	name             string
	lines, n, stride int
}

// benchEdges times s.Edges per cell on blast-like data of each shape,
// through the AVX2 body and the Go loop.
func benchEdges(b *testing.B, s Scheme, shapes []edgeShape) {
	g := s.Ghost()
	for _, sh := range shapes {
		u := blastCells(sh.lines+2*g-2, sh.n, sh.stride)
		lo, hi := make([]float64, sh.lines*sh.n), make([]float64, sh.lines*sh.n)
		for _, path := range []struct {
			name string
			avx2 bool
		}{{"avx2", true}, {"go", false}} {
			b.Run(path.name+"/"+sh.name, func(b *testing.B) {
				if path.avx2 && !simd.AVX2 {
					b.Skip("no AVX2")
				}
				defer func(old bool) { simd.AVX2 = old }(simd.AVX2)
				simd.AVX2 = path.avx2
				for range b.N {
					s.Edges(u, (g-1)*sh.stride, sh.stride, sh.lines, lo, hi)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(lo)), "ns/cell")
			})
		}
	}
}

// BenchmarkMCEdges times the MC edge kernel on one 48-lane plane line.
func BenchmarkMCEdges(b *testing.B) {
	benchEdges(b, PLM{Lim: MonotonizedCentral}, []edgeShape{{"n=48", 1, 48, 48}})
}

// BenchmarkPPMEdges times the PPM edge kernel on an x row of 50 lanes
// (Nx + 2 at 48³; its stencil lines are the row shifted by one cell) and
// on a plane of 8 lines × 48 lanes, the shape the y and z sweeps run.
func BenchmarkPPMEdges(b *testing.B) {
	benchEdges(b, PPM{}, []edgeShape{{"row/n=50", 1, 50, 1}, {"plane/8x48", 8, 48, 48}})
}
