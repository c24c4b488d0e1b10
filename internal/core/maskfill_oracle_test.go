package core

import (
	"math/rand"
	"testing"

	"rhsc/internal/grid"
)

// The fail-safe's own mask ghost fill, which fsRepair ran before the
// grid's FillGhosts took its place, kept verbatim as the oracle of
// TestMaskFillMatchesParent.

// fsFillMaskBCs fills the ghost-band entries of the troubled-cell mask
// for the grid's own boundary conditions, mirroring grid.ApplyBCs
// (Outflow copies, Periodic wraps, Reflect mirrors — flags carry no
// sign). Faces marked External (and Custom) are left untouched for the
// driver's mask exchange, exactly like the primitive halo.
func (s *Solver) fsFillMaskBCs() {
	g := s.G
	m := s.fsMask
	ng := g.Ng
	nx := g.Nx
	for k := 0; k < g.TotalZ; k++ {
		for j := 0; j < g.TotalY; j++ {
			row := (k*g.TotalY + j) * g.TotalX
			data := m[row : row+g.TotalX]
			switch g.BCs[0][0] {
			case grid.Outflow:
				for i := 0; i < ng; i++ {
					data[i] = data[ng]
				}
			case grid.Periodic:
				for i := 0; i < ng; i++ {
					data[i] = data[nx+i]
				}
			case grid.Reflect:
				for i := 0; i < ng; i++ {
					data[i] = data[2*ng-1-i]
				}
			}
			switch g.BCs[0][1] {
			case grid.Outflow:
				for i := 0; i < ng; i++ {
					data[ng+nx+i] = data[ng+nx-1]
				}
			case grid.Periodic:
				for i := 0; i < ng; i++ {
					data[ng+nx+i] = data[ng+i]
				}
			case grid.Reflect:
				for i := 0; i < ng; i++ {
					data[ng+nx+i] = data[ng+nx-1-i]
				}
			}
		}
	}
	if g.Ny > 1 {
		nyI := g.Ny
		for k := 0; k < g.TotalZ; k++ {
			for i := 0; i < g.TotalX; i++ {
				at := func(j int) int { return (k*g.TotalY+j)*g.TotalX + i }
				switch g.BCs[1][0] {
				case grid.Outflow:
					for j := 0; j < ng; j++ {
						m[at(j)] = m[at(ng)]
					}
				case grid.Periodic:
					for j := 0; j < ng; j++ {
						m[at(j)] = m[at(nyI+j)]
					}
				case grid.Reflect:
					for j := 0; j < ng; j++ {
						m[at(j)] = m[at(2*ng-1-j)]
					}
				}
				switch g.BCs[1][1] {
				case grid.Outflow:
					for j := 0; j < ng; j++ {
						m[at(ng+nyI+j)] = m[at(ng+nyI-1)]
					}
				case grid.Periodic:
					for j := 0; j < ng; j++ {
						m[at(ng+nyI+j)] = m[at(ng+j)]
					}
				case grid.Reflect:
					for j := 0; j < ng; j++ {
						m[at(ng+nyI+j)] = m[at(ng+nyI-1-j)]
					}
				}
			}
		}
	}
	if g.Nz > 1 {
		nzI := g.Nz
		for j := 0; j < g.TotalY; j++ {
			for i := 0; i < g.TotalX; i++ {
				at := func(k int) int { return (k*g.TotalY+j)*g.TotalX + i }
				switch g.BCs[2][0] {
				case grid.Outflow:
					for k := 0; k < ng; k++ {
						m[at(k)] = m[at(ng)]
					}
				case grid.Periodic:
					for k := 0; k < ng; k++ {
						m[at(k)] = m[at(nzI+k)]
					}
				case grid.Reflect:
					for k := 0; k < ng; k++ {
						m[at(k)] = m[at(2*ng-1-k)]
					}
				}
				switch g.BCs[2][1] {
				case grid.Outflow:
					for k := 0; k < ng; k++ {
						m[at(ng+nzI+k)] = m[at(ng+nzI-1)]
					}
				case grid.Periodic:
					for k := 0; k < ng; k++ {
						m[at(ng+nzI+k)] = m[at(ng+k)]
					}
				case grid.Reflect:
					for k := 0; k < ng; k++ {
						m[at(ng+nzI+k)] = m[at(ng+nzI-1-k)]
					}
				}
			}
		}
	}
}

// TestMaskFillMatchesParent holds fsRepair's mask fill,
// grid.FillGhosts(g, mask, grid.Scalar), to fsFillMaskBCs byte for byte:
// every BC on every face in 1-D, 2-D and 3-D with Ng 1–4, on random
// flags in the interior and the ghosts (External and Custom ghosts must
// come out untouched).
func TestMaskFillMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bcs := []grid.BC{grid.Outflow, grid.Periodic, grid.Reflect, grid.External, grid.Custom}
	for dim := 1; dim <= 3; dim++ {
		for ng := 1; ng <= 4; ng++ {
			for _, n := range []int{2, 3, 7} {
				for c := 0; c < 3*len(bcs); c++ {
					geom := grid.Geometry{Nx: n, Ny: 1, Nz: 1, Ng: ng, X0: 0, X1: 1, Y0: 0, Y1: 1, Z0: 0, Z1: 1}
					if dim >= 2 {
						geom.Ny = n + 1
					}
					if dim >= 3 {
						geom.Nz = n + 2
					}
					g := grid.New(geom)
					for d := 0; d < dim; d++ {
						for side := 0; side < 2; side++ {
							g.BCs[d][side] = bcs[(c+2*d+side)%len(bcs)]
							if c >= len(bcs) {
								g.BCs[d][side] = bcs[rng.Intn(len(bcs))]
							}
						}
					}
					got := make([]uint8, g.NCells())
					for i := range got {
						got[i] = uint8(rng.Intn(4))
					}
					want := append([]uint8(nil), got...)
					(&Solver{G: g, fsMask: want}).fsFillMaskBCs()
					grid.FillGhosts(g, got, grid.Scalar)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%dd/ng%d/n%d/case%d %v: cell %d = %d, oracle %d",
								dim, ng, n, c, g.BCs, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
