package riemann

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rhsc/internal/eos"
	"rhsc/internal/simd"
	"rhsc/internal/state"
)

// setAVX2 switches the vector row kernels on or off and returns the
// previous setting. Switching them on without AVX2 runs the Go loops.
func setAVX2(on bool) bool {
	old := simd.AVX2
	simd.AVX2 = on
	return old
}

// ieeeEdges are the values the edge rows draw primitive components from:
// signed zeros, subnormals, infinities, NaN, speeds a rounding below and
// at light speed, and extreme magnitudes.
var ieeeEdges = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1022, math.Inf(1), math.Inf(-1), math.NaN(),
	1 - 0x1p-53, -(1 - 0x1p-53), 1, -1, 1e308, 1e-300,
}

// parityRow draws n face pairs of one kind: "mixed" (the facePair
// regimes plus linear-root pairs), "upwind" (supersonic both ways, so
// whole vectors blend the upwind fluxes over a star state they do not
// use), "blast" (blast3d's two states,
// moving), "random", "edge" (components drawn from ieeeEdges) and
// "fan" (light-speed cold pairs with S_L = S_R, and ±0 speeds).
func parityRow(rng *rand.Rand, kind string, n int) []facePair {
	row := make([]facePair, n)
	for f := range row {
		switch kind {
		case "mixed":
			row[f] = facePair{}.Generate(rng, 0).Interface().(facePair)
			if rng.Intn(8) == 0 {
				row[f] = linearRootPair(rng)
			}
		case "upwind":
			v := 0.97
			if rng.Intn(2) == 0 {
				v = -v
			}
			row[f] = facePair{boosted(rng, v), boosted(rng, v)}
		case "blast":
			side := func() state.Prim {
				p := state.Prim{Rho: 1 + 0.1*rng.Float64(), P: 0.05}
				if rng.Intn(2) == 0 {
					p.P = 50
				}
				v := randomPrim(rng)
				p.Vx, p.Vy, p.Vz = 0.9*v.Vx, 0.9*v.Vy, 0.9*v.Vz
				return p
			}
			row[f] = facePair{side(), side()}
		case "random":
			row[f] = facePair{randomPrim(rng), randomPrim(rng)}
		case "edge":
			side := func() state.Prim {
				p := randomPrim(rng)
				for _, c := range []*float64{&p.Rho, &p.Vx, &p.Vy, &p.Vz, &p.P} {
					if rng.Intn(3) == 0 {
						*c = ieeeEdges[rng.Intn(len(ieeeEdges))]
					}
				}
				return p
			}
			row[f] = facePair{side(), side()}
		case "fan":
			side := func() state.Prim {
				zero := []float64{0, math.Copysign(0, -1)}
				p := state.Prim{Rho: 1, P: zero[rng.Intn(2)],
					Vx: zero[rng.Intn(2)], Vy: zero[rng.Intn(2)], Vz: zero[rng.Intn(2)]}
				switch rng.Intn(3) {
				case 0:
					p.Vx = 1 - 0x1p-53
				case 1:
					p.Vx = -(1 - 0x1p-53)
				}
				return p
			}
			row[f] = facePair{side(), side()}
		}
	}
	return row
}

// sameOrNaN reports whether got holds want's bits, or a NaN where want
// is a NaN other than the sentinel: a lane's NaN payload follows operand
// order, which the compiler may commute.
func sameOrNaN(got, want float64) bool {
	if math.IsNaN(want) && math.Float64bits(want) != math.Float64bits(rowSentinel) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// hllBranches counts the arms of the HLL combine a face takes: upwind on
// the left (S_L ≥ 0), upwind on the right (S_R ≤ 0) and the fan, and
// how often an upwind face has S_L = S_R, where the vector body's
// 1/(S_R − S_L) divides by zero and the blend must drop it.
type hllBranches struct {
	upwindL, upwindR, fan, zeroWidth int
}

// count records the arm of the face between l and r.
func (br *hllBranches) count(l, r *faceRef) {
	sl, sr := min(l.Lm, r.Lm), max(l.Lp, r.Lp)
	switch {
	case sl >= 0:
		br.upwindL++
	case sr <= 0:
		br.upwindR++
	default:
		br.fan++
	}
	if sl == sr {
		br.zeroWidth++
	}
}

// The AVX2 row kernels against the Go row loops and both against the
// per-face reference (faceRef, hllFace, hllcFace): rows of every length
// 1–67 at every offset lo mod 4, so every vector head and every tail
// length runs; all three directions and closures; mixed, supersonic,
// blast, random, IEEE-edge and light-speed rows, each combined with HLL
// and with HLLC. Bits must match exactly, NaN as a class where the Go
// loop yields NaN, and faces outside [lo, hi) must keep their sentinel.
// Every HLL and HLLC branch must be taken in every lane position of a
// vector, and every lane position must drop the 1/(S_R − S_L) of an
// upwind face with S_L = S_R.
func TestVectorRowsMatchGoLoops(t *testing.T) {
	if !simd.AVX2 {
		t.Skip("no AVX2: the Go row loops run every face")
	}
	defer setAVX2(setAVX2(true))
	rng := rand.New(rand.NewSource(38))
	closures := []eos.EOS{gamma53, eos.TaubMathews{}, eos.NewHybrid(0.1, 2, 5.0/3.0)}
	var lanes [4]hllcBranches
	var hllLanes [4]hllBranches
	for n := 1; n <= 67; n++ {
		for lo := 0; lo < 4; lo++ {
			size := lo + n + 3
			for _, kind := range []string{"mixed", "upwind", "blast", "random", "edge", "fan"} {
				pairs := parityRow(rng, kind, size)
				var ql, qr [state.NComp][]float64
				for c := range ql {
					ql[c], qr[c] = make([]float64, size), make([]float64, size)
				}
				for f, fp := range pairs {
					for c, v := range [state.NComp]float64{fp.L.Rho, fp.L.Vx, fp.L.Vy, fp.L.Vz, fp.L.P} {
						ql[c][f] = v
					}
					for c, v := range [state.NComp]float64{fp.R.Rho, fp.R.Vx, fp.R.Vy, fp.R.Vz, fp.R.P} {
						qr[c][f] = v
					}
				}
				for _, e := range closures {
					for _, d := range []state.Direction{state.X, state.Y, state.Z} {
						checkVectorRow(t, e, d, &ql, &qr, pairs, lo, lo+n, kind, &lanes, &hllLanes)
						if t.Failed() {
							return
						}
					}
				}
			}
		}
	}
	for j, br := range lanes {
		if br.upwindL == 0 || br.upwindR == 0 || br.linearRoot == 0 || br.clamped == 0 ||
			br.starL == 0 || br.starR == 0 {
			t.Errorf("lane %d missed an HLLC branch: %+v", j, br)
		}
	}
	for j, br := range hllLanes {
		if br.upwindL == 0 || br.upwindR == 0 || br.fan == 0 || br.zeroWidth == 0 {
			t.Errorf("lane %d missed an HLL branch: %+v", j, br)
		}
	}
}

// checkVectorRow evaluates faces [lo, hi) of one row and combines them
// with HLLC and with HLL on both paths, and holds each to the other and
// to the per-face reference. lanes and hllLanes count the reference's
// HLLC and HLL branches by lane position for the faces the vector
// kernels ran.
func checkVectorRow(t *testing.T, e eos.EOS, d state.Direction, ql, qr *[state.NComp][]float64,
	pairs []facePair, lo, hi int, kind string, lanes *[4]hllcBranches, hllLanes *[4]hllBranches) {
	t.Helper()
	size := len(pairs)
	type out struct {
		l, r   Faces
		fx, hx [state.NComp][]float64
	}
	run := func(vec bool) (o out) {
		defer setAVX2(setAVX2(vec))
		o.l, o.r = NewFaces(sentinelRow(NSlab*size), size), NewFaces(sentinelRow(NSlab*size), size)
		for c := range o.fx {
			o.fx[c], o.hx[c] = sentinelRow(size), sentinelRow(size)
		}
		EvalRow(&o.l, ql, e, d, lo, hi)
		EvalRow(&o.r, qr, e, d, lo, hi)
		KindHLLC.FluxRow(&o.l, &o.r, &o.fx, d, lo, hi)
		KindHLL.FluxRow(&o.l, &o.r, &o.hx, d, lo, hi)
		return o
	}
	vec, scalar := run(true), run(false)
	head := lo + (hi-lo)&^3
	for f := 0; f < size; f++ {
		var wantL, wantR [NSlab]float64
		var wantF, wantH [state.NComp]float64
		var ref [2]faceRef
		for k := range wantL {
			wantL[k], wantR[k] = rowSentinel, rowSentinel
		}
		for c := range wantF {
			wantF[c], wantH[c] = rowSentinel, rowSentinel
		}
		if f >= lo && f < hi {
			for s, p := range [2]state.Prim{pairs[f].L, pairs[f].R} {
				ref[s].Eval(e.Enthalpy(p.Rho, p.P), e.SoundSpeed2(p.Rho, p.P), p, d)
			}
			wantL, wantR = ref[0].slabs(), ref[1].slabs()
			wantF[0], wantF[1], wantF[2], wantF[3], wantF[4] = hllcFace(&ref[0], &ref[1], d)
			wantH[0], wantH[1], wantH[2], wantH[3], wantH[4] = hllFace(&ref[0], &ref[1])
			if f < head && kind != "edge" {
				refHLLC(e, pairs[f].L, pairs[f].R, d, &lanes[(f-lo)%4])
			}
			if f < head {
				hllLanes[(f-lo)%4].count(&ref[0], &ref[1])
			}
		}
		gotF := func(o *out) (g [state.NComp]float64) {
			for c := range g {
				g[c] = o.fx[c][f]
			}
			return g
		}
		gotH := func(o *out) (g [state.NComp]float64) {
			for c := range g {
				g[c] = o.hx[c][f]
			}
			return g
		}
		for _, c := range []struct {
			what      string
			got, want []float64
		}{
			{"left faces", slice(vec.l.at(f)), slice(scalar.l.at(f))},
			{"right faces", slice(vec.r.at(f)), slice(scalar.r.at(f))},
			{"flux", slice(gotF(&vec)), slice(gotF(&scalar))},
			{"Go left faces vs reference", slice(scalar.l.at(f)), wantL[:]},
			{"Go right faces vs reference", slice(scalar.r.at(f)), wantR[:]},
			{"Go flux vs reference", slice(gotF(&scalar)), wantF[:]},
			{"left faces vs reference", slice(vec.l.at(f)), wantL[:]},
			{"right faces vs reference", slice(vec.r.at(f)), wantR[:]},
			{"flux vs reference", slice(gotF(&vec)), wantF[:]},
			{"HLL flux", slice(gotH(&vec)), slice(gotH(&scalar))},
			{"Go HLL flux vs reference", slice(gotH(&scalar)), wantH[:]},
			{"HLL flux vs reference", slice(gotH(&vec)), wantH[:]},
		} {
			for k := range c.want {
				if !sameOrNaN(c.got[k], c.want[k]) {
					t.Fatalf("%s %s dir %v row %d [%d, %d) face %d: %s entry %d = %v (%#x), want %v (%#x)\nL=%+v\nR=%+v",
						kind, e.Name(), d, size, lo, hi, f, c.what, k, c.got[k], math.Float64bits(c.got[k]),
						c.want[k], math.Float64bits(c.want[k]), pairs[f].L, pairs[f].R)
				}
			}
		}
	}
}

func slice[A [NSlab]float64 | [state.NComp]float64](a A) []float64 {
	s := make([]float64, len(a))
	for i := range s {
		s[i] = a[i]
	}
	return s
}

// blastRow returns the left and right primitive states of n faces on a
// line through a relativistic blast: a hot rarefied core, a dense shell
// moving out at 0.7c and cold ambient gas at rest, with the two sides of
// each face a few per cent apart. The shell's faces are supersonic (10
// of 49 upwind), the others star states on both sides of the contact.
func blastRow(n int) (ql, qr [state.NComp][]float64) {
	rng := rand.New(rand.NewSource(1))
	for c := range ql {
		ql[c], qr[c] = make([]float64, n), make([]float64, n)
	}
	for f := 0; f < n; f++ {
		x := 2*float64(f)/float64(n-1) - 1
		p := state.Prim{Rho: 1, P: 0.05}
		switch r := math.Abs(x); {
		case r < 0.4:
			p = state.Prim{Rho: 0.2, Vx: 0.5 * x, P: 20}
		case r < 0.6:
			p = state.Prim{Rho: 3, Vx: math.Copysign(0.7, x), Vy: 0.05, P: 1}
		}
		for s, q := range [2]*[state.NComp][]float64{&ql, &qr} {
			k := 1 + 0.05*(rng.Float64()-0.5) + 0.1*float64(s)*(rng.Float64()-0.5)
			for c, v := range [state.NComp]float64{p.Rho * k, p.Vx * k, p.Vy, p.Vz, p.P / k} {
				q[c][f] = v
			}
		}
	}
	return ql, qr
}

// rowPaths are the two row-kernel paths the benchmarks compare.
var rowPaths = []struct {
	name string
	avx2 bool
}{{"avx2", true}, {"go", false}}

// BenchmarkEvalRow times EvalRow per face side on blast rows of 49 faces
// (an x row of the 48³ step) and 17, through the AVX2 kernel and through
// the Go loop.
func BenchmarkEvalRow(b *testing.B) {
	for _, n := range []int{49, 17} {
		ql, _ := blastRow(n)
		f := NewFaces(make([]float64, NSlab*n), n)
		for _, path := range rowPaths {
			b.Run(fmt.Sprintf("%s/n=%d", path.name, n), func(b *testing.B) {
				if path.avx2 && !simd.AVX2 {
					b.Skip("no AVX2")
				}
				defer setAVX2(setAVX2(path.avx2))
				for i := 0; i < b.N; i++ {
					EvalRow(&f, &ql, gamma53, state.X, 0, n)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/face")
			})
		}
	}
}

// BenchmarkHLLCRow times the HLLC combine per face on the evaluated blast
// rows of BenchmarkEvalRow, through the AVX2 kernel and the Go loop.
func BenchmarkHLLCRow(b *testing.B) { benchCombine(b, KindHLLC) }

// BenchmarkHLLRow times the HLL combine per face on the same rows.
func BenchmarkHLLRow(b *testing.B) { benchCombine(b, KindHLL) }

// benchCombine times k.FluxRow per face on the evaluated blast rows of
// BenchmarkEvalRow, through the AVX2 kernel and the Go loop.
func benchCombine(b *testing.B, k Kind) {
	for _, n := range []int{49, 17} {
		ql, qr := blastRow(n)
		l, r := NewFaces(make([]float64, NSlab*n), n), NewFaces(make([]float64, NSlab*n), n)
		EvalRow(&l, &ql, gamma53, state.X, 0, n)
		EvalRow(&r, &qr, gamma53, state.X, 0, n)
		var fx [state.NComp][]float64
		for c := range fx {
			fx[c] = make([]float64, n)
		}
		for _, path := range rowPaths {
			b.Run(fmt.Sprintf("%s/n=%d", path.name, n), func(b *testing.B) {
				if path.avx2 && !simd.AVX2 {
					b.Skip("no AVX2")
				}
				defer setAVX2(setAVX2(path.avx2))
				for i := 0; i < b.N; i++ {
					k.FluxRow(&l, &r, &fx, state.X, 0, n)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/face")
			})
		}
	}
}
