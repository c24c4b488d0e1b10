package grid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rhsc/internal/state"
)

// The per-axis ghost fills FillGhosts replaced, kept verbatim as oracles:
// applyBCx/y/z are the three passes the old ApplyBCs ran before its
// Custom hooks (oracleApplyBCs).

func (g *Grid) oracleApplyBCs(f *state.Fields) {
	g.oracleStandardPasses(f)
	for d := 0; d < 3; d++ {
		for side := 0; side < 2; side++ {
			if g.BCs[d][side] == Custom {
				g.CustomFill[d][side](g, f)
			}
		}
	}
}

func (g *Grid) oracleStandardPasses(f *state.Fields) {
	g.applyBCx(f)
	if g.Ny > 1 {
		g.applyBCy(f)
	}
	if g.Nz > 1 {
		g.applyBCz(f)
	}
}

func (g *Grid) applyBCx(f *state.Fields) {
	ng, nx := g.Ng, g.Nx
	for c := 0; c < state.NComp; c++ {
		flip := 1.0
		for k := 0; k < g.TotalZ; k++ {
			for j := 0; j < g.TotalY; j++ {
				row := (k*g.TotalY + j) * g.TotalX
				data := f.Comp[c][row : row+g.TotalX]
				// Lower face.
				switch g.BCs[0][0] {
				case Outflow:
					for i := 0; i < ng; i++ {
						data[i] = data[ng]
					}
				case Periodic:
					for i := 0; i < ng; i++ {
						data[i] = data[nx+i]
					}
				case Reflect:
					flip = 1.0
					if c == int(state.IVx) {
						flip = -1.0
					}
					for i := 0; i < ng; i++ {
						data[i] = flip * data[2*ng-1-i]
					}
				}
				// Upper face.
				switch g.BCs[0][1] {
				case Outflow:
					for i := 0; i < ng; i++ {
						data[ng+nx+i] = data[ng+nx-1]
					}
				case Periodic:
					for i := 0; i < ng; i++ {
						data[ng+nx+i] = data[ng+i]
					}
				case Reflect:
					flip = 1.0
					if c == int(state.IVx) {
						flip = -1.0
					}
					for i := 0; i < ng; i++ {
						data[ng+nx+i] = flip * data[ng+nx-1-i]
					}
				}
			}
		}
	}
}

func (g *Grid) applyBCy(f *state.Fields) {
	ng, ny := g.Ng, g.Ny
	for c := 0; c < state.NComp; c++ {
		flip := 1.0
		if c == int(state.IVy) {
			flip = -1.0
		}
		for k := 0; k < g.TotalZ; k++ {
			for i := 0; i < g.TotalX; i++ {
				at := func(j int) int { return (k*g.TotalY+j)*g.TotalX + i }
				switch g.BCs[1][0] {
				case Outflow:
					for j := 0; j < ng; j++ {
						f.Comp[c][at(j)] = f.Comp[c][at(ng)]
					}
				case Periodic:
					for j := 0; j < ng; j++ {
						f.Comp[c][at(j)] = f.Comp[c][at(ny+j)]
					}
				case Reflect:
					for j := 0; j < ng; j++ {
						v := f.Comp[c][at(2*ng-1-j)]
						if flip < 0 {
							v = -v
						}
						f.Comp[c][at(j)] = v
					}
				}
				switch g.BCs[1][1] {
				case Outflow:
					for j := 0; j < ng; j++ {
						f.Comp[c][at(ng+ny+j)] = f.Comp[c][at(ng+ny-1)]
					}
				case Periodic:
					for j := 0; j < ng; j++ {
						f.Comp[c][at(ng+ny+j)] = f.Comp[c][at(ng+j)]
					}
				case Reflect:
					for j := 0; j < ng; j++ {
						v := f.Comp[c][at(ng+ny-1-j)]
						if flip < 0 {
							v = -v
						}
						f.Comp[c][at(ng+ny+j)] = v
					}
				}
			}
		}
	}
}

func (g *Grid) applyBCz(f *state.Fields) {
	ng, nz := g.Ng, g.Nz
	for c := 0; c < state.NComp; c++ {
		flip := 1.0
		if c == int(state.IVz) {
			flip = -1.0
		}
		for j := 0; j < g.TotalY; j++ {
			for i := 0; i < g.TotalX; i++ {
				at := func(k int) int { return (k*g.TotalY+j)*g.TotalX + i }
				switch g.BCs[2][0] {
				case Outflow:
					for k := 0; k < ng; k++ {
						f.Comp[c][at(k)] = f.Comp[c][at(ng)]
					}
				case Periodic:
					for k := 0; k < ng; k++ {
						f.Comp[c][at(k)] = f.Comp[c][at(nz+k)]
					}
				case Reflect:
					for k := 0; k < ng; k++ {
						v := f.Comp[c][at(2*ng-1-k)]
						if flip < 0 {
							v = -v
						}
						f.Comp[c][at(k)] = v
					}
				}
				switch g.BCs[2][1] {
				case Outflow:
					for k := 0; k < ng; k++ {
						f.Comp[c][at(ng+nz+k)] = f.Comp[c][at(ng+nz-1)]
					}
				case Periodic:
					for k := 0; k < ng; k++ {
						f.Comp[c][at(ng+nz+k)] = f.Comp[c][at(ng+k)]
					}
				case Reflect:
					for k := 0; k < ng; k++ {
						v := f.Comp[c][at(ng+nz-1-k)]
						if flip < 0 {
							v = -v
						}
						f.Comp[c][at(ng+nz+k)] = v
					}
				}
			}
		}
	}
}

// specials are the values a ghost fill must carry through bit for bit
// (NaN only as a class: the old x-Reflect multiplied by ±1 where the y/z
// passes and FillGhosts negate or copy).
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}

// randomField fills every cell, ghosts included, with distinct finite
// values salted with specials, so an untouched ghost and a misrouted copy
// both show.
func randomField(rng *rand.Rand, f []float64) {
	for i := range f {
		if rng.Intn(8) == 0 {
			f[i] = specials[rng.Intn(len(specials))]
		} else {
			f[i] = rng.NormFloat64() * 1e3
		}
	}
}

// sameBits compares two fields bit for bit, NaN as a class.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: cell %d = %v (%#x), oracle %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// bcGrids enumerates 1-D, 2-D and 3-D grids with Ng 1–4, interiors
// narrower and wider than the ghost band, and random face BCs (every BC
// on every face appears: face f of case c gets BC (c+f) mod 5 on the
// first sweep, random ones after).
func bcGrids(yield func(name string, g *Grid)) {
	rng := rand.New(rand.NewSource(7))
	bcs := []BC{Outflow, Periodic, Reflect, External, Custom}
	for dim := 1; dim <= 3; dim++ {
		for ng := 1; ng <= 4; ng++ {
			for _, n := range []int{1, 2, 3, 5, 9} {
				if dim > 1 && n == 1 {
					continue // an axis with one cell is inactive
				}
				for c := 0; c < 2*len(bcs); c++ {
					geom := Geometry{Nx: n, Ny: 1, Nz: 1, Ng: ng, X0: 0, X1: 1, Y0: 0, Y1: 1, Z0: 0, Z1: 1}
					if dim >= 2 {
						geom.Ny = n + 1
					}
					if dim >= 3 {
						geom.Nz = n + 2
					}
					g := New(geom)
					for d := 0; d < dim; d++ {
						for side := 0; side < 2; side++ {
							bc := bcs[(c+2*d+side)%len(bcs)]
							if c >= len(bcs) {
								bc = bcs[rng.Intn(len(bcs))]
							}
							g.BCs[d][side] = bc
							// The hook marks its face's ghosts by field
							// and face, so a skipped or extra call shows.
							tag := float64(10*d + side + 1)
							g.CustomFill[d][side] = func(g *Grid, f *state.Fields) {
								v := tag
								if f == g.W {
									v = -v
								}
								for c := range f.Comp {
									f.Comp[c][0] += v
								}
							}
						}
					}
					yield(fmt.Sprintf("%dd/ng%d/n%d/case%d", dim, ng, n, c), g)
				}
			}
		}
	}
}

// TestFillGhostsMatchesParent holds ApplyBCs, the scalar fill and the
// mask fill to the parent's per-axis passes, bit for bit, for every BC on
// every face in 1-D, 2-D and 3-D with Ng 1–4, on data salted with NaN,
// ±Inf and ±0.
func TestFillGhostsMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := 0
	bcGrids(func(name string, g *Grid) {
		cases++
		n := g.NCells()

		// ApplyBCs on both fields in place, so the Custom hooks tell
		// g.U from g.W as they do in a run.
		for _, f := range []*state.Fields{g.U, g.W} {
			randomField(rng, f.Raw())
			in := append([]float64(nil), f.Raw()...)
			g.oracleApplyBCs(f)
			want := append([]float64(nil), f.Raw()...)
			copy(f.Raw(), in)
			g.ApplyBCs(f)
			sameBits(t, name+"/ApplyBCs", f.Raw(), want)
		}

		// The scalar fill: component 0 of the standard passes (never
		// negated, Custom faces left alone).
		got := make([]float64, n)
		randomField(rng, got)
		ref := state.NewFields(n)
		copy(ref.Comp[0], got)
		g.oracleStandardPasses(ref)
		FillGhosts(g, got, Scalar)
		sameBits(t, name+"/scalar", got, ref.Comp[0])

		// The mask fill: uint8 flags through the same oracle.
		mask := make([]uint8, n)
		for i := range mask {
			mask[i] = uint8(rng.Intn(256))
		}
		ref = state.NewFields(n)
		for i, m := range mask {
			ref.Comp[0][i] = float64(m)
		}
		g.oracleStandardPasses(ref)
		FillGhosts(g, mask, Scalar)
		for i, m := range mask {
			if float64(m) != ref.Comp[0][i] {
				t.Fatalf("%s/mask: cell %d = %d, oracle %v", name, i, m, ref.Comp[0][i])
			}
		}
	})
	if cases == 0 {
		t.Fatal("no grid enumerated")
	}
}

// TestFillGhostsZeroAllocs: the fill runs on every primitive recovery.
func TestFillGhostsZeroAllocs(t *testing.T) {
	g := mk3D(6, 3)
	g.SetAllBCs(Reflect)
	mask := make([]uint8, g.NCells())
	if a := testing.AllocsPerRun(5, func() {
		g.ApplyBCs(g.W)
		FillGhosts(g, mask, Scalar)
	}); a != 0 {
		t.Errorf("ghost fill allocates %.1f times, want 0", a)
	}
}
