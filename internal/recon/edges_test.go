package recon

import (
	"fmt"
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

// mcCells are the values the vector parity rows draw cells from: signed
// zeros, subnormals, infinities, NaN and extreme magnitudes.
var mcCells = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -1e-310, 0x1p-1022,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 1e308, -1e308, 1e-300}

// mcLine draws n cells with their neighbours: per lane a regime chosen
// at random — both differences positive, both negative, mixed, equal
// neighbours, or IEEE edge values — so both sign branches and the zero
// arm run in every lane position of a vector.
func mcLine(rng *rand.Rand, n int) (um, u0, up []float64) {
	um, u0, up = make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range u0 {
		c := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(21)-10))
		a, b := math.Abs(rng.NormFloat64()), math.Abs(rng.NormFloat64())
		switch rng.Intn(6) {
		case 0: // rising
			um[i], u0[i], up[i] = c-a, c, c+b
		case 1: // falling
			um[i], u0[i], up[i] = c+a, c, c-b
		case 2: // extremum
			um[i], u0[i], up[i] = c-a, c, c-b
		case 3: // equal neighbours
			um[i], u0[i], up[i] = c, c, c
			if rng.Intn(2) == 0 {
				up[i] = c + b
			}
		case 4: // subnormal steps
			d := float64(1+rng.Intn(3)) * 5e-324
			um[i], u0[i], up[i] = -d, 0, d*float64(1+rng.Intn(2))
			if rng.Intn(2) == 0 {
				um[i], up[i] = -um[i], -up[i]
			}
		default:
			um[i], u0[i], up[i] = mcCells[rng.Intn(len(mcCells))], mcCells[rng.Intn(len(mcCells))],
				mcCells[rng.Intn(len(mcCells))]
		}
	}
	return um, u0, up
}

// The AVX2 body of the MC edge kernel against its Go body: lines of
// every length 1–67 at every start mod 4, through PLM.Edges with the
// vector body on and off. Bits must match exactly, NaN as a class where
// the Go body yields NaN; slots outside the line keep their sentinel;
// both sign branches must be taken in every lane position of a vector.
func TestMCEdgesVectorMatchesGo(t *testing.T) {
	if !simd.AVX2 {
		t.Skip("no AVX2: the Go loop runs every cell")
	}
	defer func(old bool) { simd.AVX2 = old }(simd.AVX2)
	rng := rand.New(rand.NewSource(41))
	p := PLM{Lim: MonotonizedCentral}
	var pos, neg [4]int
	for n := 1; n <= 67; n++ {
		for start := 0; start < 4; start++ {
			for range 20 {
				um, u0, up := mcLine(rng, n)
				// One array holds the three lines, stride n+start+1 apart,
				// so the cells begin at every offset mod 4.
				stride := n + start + 1
				u := sentinels(start + 3*stride)
				copy(u[start:], um)
				copy(u[start+stride:], u0)
				copy(u[start+2*stride:], up)
				// edges[path][side]: path 0 the vector body, 1 the Go loop.
				var edges [2][2][]float64
				for k, vec := range []bool{true, false} {
					simd.AVX2 = vec
					lo, hi := sentinels(start+n+4), sentinels(start+n+4)
					p.Edges(u, start+stride, stride, 1, lo[start:start+n], hi[start:])
					edges[k] = [2][]float64{lo, hi}
				}
				for side, name := range []string{"lo", "hi"} {
					vec, ref := edges[0][side], edges[1][side]
					for i := range vec {
						inLine := i >= start && i < start+n
						if !inLine && math.Float64bits(vec[i]) != math.Float64bits(sentinel) {
							t.Fatalf("n=%d start=%d: %s slot %d outside the line written", n, start, name, i)
						}
						if math.Float64bits(vec[i]) != math.Float64bits(ref[i]) &&
							!(math.IsNaN(ref[i]) && math.IsNaN(vec[i])) {
							t.Fatalf("n=%d start=%d %s[%d]: avx2 %v, go %v (cells %v %v %v)",
								n, start, name, i-start, vec[i], ref[i], um, u0, up)
						}
					}
				}
				if n < 4 {
					continue
				}
				for i := range u0 {
					dm, dp := u0[i]-um[i], up[i]-u0[i]
					if dm > 0 && dp > 0 {
						pos[i%4]++
					}
					if dm < 0 && dp < 0 {
						neg[i%4]++
					}
				}
			}
		}
	}
	for l := range pos {
		if pos[l] == 0 || neg[l] == 0 {
			t.Fatalf("lane %d: positive branch %d times, negative %d", l, pos[l], neg[l])
		}
	}
}

// BenchmarkMCEdges times the MC edge kernel per cell on a 48-lane plane
// line of blast-like data — plateaus, a smooth flank and a jump, no
// subnormals — through the AVX2 body and the Go loop.
func BenchmarkMCEdges(b *testing.B) {
	const n = 48
	u := make([]float64, 3*n)
	for m := range 3 {
		for i := range n {
			x := float64(i+m) / n
			switch {
			case x < 0.3:
				u[m*n+i] = 1
			case x < 0.6:
				u[m*n+i] = 1 + 9*math.Sin(3*x)
			default:
				u[m*n+i] = 0.125
			}
		}
	}
	lo, hi := make([]float64, n), make([]float64, n)
	p := PLM{Lim: MonotonizedCentral}
	for _, path := range []struct {
		name string
		avx2 bool
	}{{"avx2", true}, {"go", false}} {
		b.Run(fmt.Sprintf("%s/n=%d", path.name, n), func(b *testing.B) {
			if path.avx2 && !simd.AVX2 {
				b.Skip("no AVX2")
			}
			defer func(old bool) { simd.AVX2 = old }(simd.AVX2)
			simd.AVX2 = path.avx2
			for range b.N {
				p.Edges(u, n, n, 1, lo, hi)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/cell")
		})
	}
}
