package grid

// Face blocks: the traversal geometry every flux sweep shares. A sweep
// reads cell lines in place from a field and runs its face pipeline over
// them as uniform loops over slabs, with no gather and no transpose. An
// x sweep runs each pencil row as one line of Nx+2 cells: the owned cells
// and a neighbour on each side. The y and z sweeps run face planes: for
// each k plane (y) or j plane (z) of a tile, the cell lines j0−1 … j1 (or
// k0−1 … k1), in x chunks of up to PlaneLanes cells, whose face lines lie
// end to end in the sweep's scratch. A face's flux is the same operations
// on the same cells however its block is laid out.

import "rhsc/internal/state"

// PlaneLanes caps the x extent of one face plane. The plane's face lines
// lie end to end in a sweep's scratch, so its slots grow with the tile
// extent times this width; wider grids run their planes in x chunks.
const PlaneLanes = 64

// Tile is a pencil tile: the half-open (j, k) index ranges of the
// interior cells it owns. Tiles span the full x extent.
type Tile struct {
	J0, J1, K0, K1 int
}

// FaceBlock is one run of a face pipeline: Lines cell lines of Lanes
// contiguous x cells, line q starting at index Base + q·Stride of the
// field, swept along D with cell width Dx. Neighbours along the sweep are
// Stride apart in the field and Next apart in the slots: an x row is one
// line swept along its lanes (Stride = Next = 1), a y or z face plane is
// swept across its lines (Next = Lanes). Cell slot s is line s/Lanes,
// lane s%Lanes. The first and last cell along the sweep are neighbours
// of the block's owned cells: face slot s in [Next, Lines·Lanes) is the
// face between cell slots s−Next and s, and cell slot s in
// [Next, Lines·Lanes−Next) is owned, with lower face s and upper face
// s+Next.
type FaceBlock struct {
	D                                state.Direction
	Base, Stride, Lines, Lanes, Next int
	Dx                               float64
}

// Run returns the slots [lo, hi) of [from, to) on cell line q, and off,
// which maps slot s there to field index off+s. The cells of a run are
// contiguous in the field, and the cell one step lower along the sweep
// is Stride lower. The run is empty when lo ≥ hi.
func (b *FaceBlock) Run(q, from, to int) (lo, hi, off int) {
	return max(q*b.Lanes, from), min((q+1)*b.Lanes, to), b.Base + q*(b.Stride-b.Lanes)
}

// Accumulate folds the face flux differences −(F₊ − F₋)/dx of face slots
// fx into the block's owned cells of rhs. Overwrite mode writes
// 0 − ΔF/dx — bitwise what accumulation into a zeroed rhs produces
// (including the sign of zero) — so the first direction of a sweep needs
// no zeroing pass.
func (b *FaceBlock) Accumulate(fx *[state.NComp][]float64, rhs *state.Fields, overwrite bool) {
	invDx := 1 / b.Dx
	end := b.Lines*b.Lanes - b.Next
	for q := range b.Lines {
		lo, hi, off := b.Run(q, b.Next, end)
		if lo >= hi {
			continue
		}
		for c := range fx {
			o := rhs.Comp[c][off+lo:][:hi-lo]
			fm := fx[c][lo:][:len(o)]
			fp := fx[c][lo+b.Next:][:len(o)]
			if overwrite {
				for i := range o {
					o[i] = 0 - (fp[i]-fm[i])*invDx
				}
			} else {
				for i := range o {
					o[i] -= (fp[i] - fm[i]) * invDx
				}
			}
		}
	}
}

// BlockSlots is the slots one face block of tiles up to tileJ×tileK
// needs: an x row's (Nx+2 cells, whose right edges start one slot on),
// or a face plane's — the most cell lines a tile plane owns (the tile
// extent, or the grid's where the tile is larger) plus the one on each
// side, each of up to PlaneLanes lanes, and one more line of slots.
func (g *Grid) BlockSlots(tileJ, tileK int) int {
	if g.Ny == 1 && g.Nz == 1 {
		return g.Nx + 3
	}
	return max(g.Nx+3, (max(min(tileJ, g.Ny), min(tileK, g.Nz))+3)*min(g.Nx, PlaneLanes))
}

// EachBlock calls fn on every face block of tile t's direction-d sweep:
// its x rows (k outer, j inner), each one line of Nx+2 lanes, or its k
// (y) or j (z) face planes, each in x chunks of up to PlaneLanes lanes.
func (g *Grid) EachBlock(t Tile, d state.Direction, fn func(FaceBlock)) {
	if d == state.X {
		for k := t.K0; k < t.K1; k++ {
			for j := t.J0; j < t.J1; j++ {
				fn(FaceBlock{D: d, Base: g.Idx(g.IBeg()-1, j, k), Stride: 1, Lines: 1, Lanes: g.Nx + 2,
					Next: 1, Dx: g.Dx})
			}
		}
		return
	}
	// Planes p of cell lines l0−1 … l1, each line of cells a stride on.
	p0, p1, l0, l1, stride, dx := t.K0, t.K1, t.J0, t.J1, g.TotalX, g.Dy
	if d == state.Z {
		p0, p1, l0, l1, stride, dx = t.J0, t.J1, t.K0, t.K1, g.TotalX*g.TotalY, g.Dz
	}
	for p := p0; p < p1; p++ {
		base := g.Idx(g.IBeg(), l0-1, p)
		if d == state.Z {
			base = g.Idx(g.IBeg(), p, l0-1)
		}
		for i0 := 0; i0 < g.Nx; i0 += PlaneLanes {
			nl := min(PlaneLanes, g.Nx-i0)
			fn(FaceBlock{D: d, Base: base + i0, Stride: stride, Lines: l1 - l0 + 2, Lanes: nl, Next: nl, Dx: dx})
		}
	}
}
