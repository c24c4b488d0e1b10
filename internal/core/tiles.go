package core

// Cache-blocked tile engine. The RHS traversal is one pass over pencil
// tiles: the (j, k) plane is partitioned into tileJ×tileK blocks, and
// each tile evaluates its x rows, its y-face sweeps, and its z-face
// sweeps while the tile's primitives and rhs rows are still cache
// resident — W is streamed once per RK stage, not once per direction.
//
// Every direction runs the one face pipeline (flux.go) on face blocks
// read in place from W, with no gather and no transpose. The x sweep runs
// each pencil row as one line of Nx+2 cells: the owned cells and a
// neighbour on each side. The y and z sweeps run face planes: for each of
// the tile's k planes (y) or j planes (z), the cell lines j0−1 … j1 (or
// k0−1 … k1), in x chunks of up to planeLanes cells. The edge kernel
// (recon.Scheme.Edges) turns each cell line and its stencil lines,
// ±Ghost() lines away, into the right states of the faces below it and
// the left states of the faces above, and the rest of the pipeline runs
// over the plane's face lines laid end to end; the flux differences
// accumulate contiguously. A face's flux is the same operations on the
// same cells however its block is laid out. Faces on tile boundaries are
// computed by both adjacent tiles (identical inputs, identical values);
// each tile accumulates only its own cells, so tiles are disjoint in rhs
// and safe to run concurrently. The fail-safe repair (failsafe.go) walks
// the same blocks.
//
// Bitwise reproducibility: every interior cell receives its directional
// contributions in the fixed order X (overwrite), then Y, then Z, and
// each contribution is the same flux difference, so the rhs is bitwise
// identical for any tile size, any worker count, and any TileExec
// chunking — and to the three grid-wide directional passes this engine
// replaced, whose results testdata/strip_golden.json freezes (see
// TestTiledBitwiseInvariance and docs/PERFORMANCE.md).

import "rhsc/internal/state"

// Default pencil-tile extents: 8×8 keeps a 3-D tile's working set —
// (tileJ+2Ng)(tileK+2Ng) full x rows of five components — within a few
// hundred KB for production row lengths, inside L2, while leaving enough
// tiles for the pool to balance.
const (
	defaultTileJ = 8
	defaultTileK = 8
)

// planeLanes caps the x extent of one face plane. The plane's face
// lines lie end to end in the block scratch, so its slots grow with the
// tile extent times this width; wider grids run their planes in x chunks.
const planeLanes = 64

// tileSpan is one pencil tile: the half-open (j, k) index ranges of the
// interior cells it owns. Tiles span the full x extent.
type tileSpan struct {
	j0, j1, k0, k1 int
}

// initTiles resolves the configured tile extents and precomputes the tile
// schedule and its pre-bound chunk body (the schedule is static, so the
// steady-state step allocates nothing).
func (s *Solver) initTiles() {
	g := s.G
	tj, tk := s.Cfg.TileJ, s.Cfg.TileK
	if tj <= 0 {
		tj = defaultTileJ
	}
	if tk <= 0 {
		tk = defaultTileK
	}
	s.tileJ, s.tileK = tj, tk
	s.tiles = s.tiles[:0]
	for k0 := g.KBeg(); k0 < g.KEnd(); k0 += tk {
		k1 := k0 + tk
		if k1 > g.KEnd() {
			k1 = g.KEnd()
		}
		for j0 := g.JBeg(); j0 < g.JEnd(); j0 += tj {
			j1 := j0 + tj
			if j1 > g.JEnd() {
				j1 = g.JEnd()
			}
			s.tiles = append(s.tiles, tileSpan{j0: j0, j1: j1, k0: k0, k1: k1})
		}
	}
	s.tileChunk = func(lo, hi int) { s.sweepTiles(lo, hi, s.curRHS) }
}

// TileZones returns the number of interior zones tiles [lo, hi) own (the
// work unit for device cost models; edge tiles are smaller).
func (s *Solver) TileZones(lo, hi int) int {
	pencils := 0
	for _, tl := range s.tiles[lo:hi] {
		pencils += (tl.j1 - tl.j0) * (tl.k1 - tl.k0)
	}
	return pencils * s.G.Nx
}

// TileSizes returns the resolved (j, k) tile extents in cells.
func (s *Solver) TileSizes() (tileJ, tileK int) { return s.tileJ, s.tileK }

// sweepTiles runs tiles [lo, hi) with one scratch, the tile engine's
// parallel chunk body.
func (s *Solver) sweepTiles(lo, hi int, rhs *state.Fields) {
	sc := s.getScratch()
	defer s.putScratch(sc)
	for t := lo; t < hi; t++ {
		s.sweepTile(s.tiles[t], sc, rhs)
	}
}

// planeSlots is the face slots one plane block needs: the most cell
// lines a tile plane owns (the tile extent, or the grid's where the tile
// is larger) plus the one on each side, each of up to planeLanes lanes,
// and one more line of slots (see faceBlock); zero for a grid with only x.
func (s *Solver) planeSlots() int {
	g := s.G
	if g.Ny == 1 && g.Nz == 1 {
		return 0
	}
	return (max(min(s.tileJ, g.Ny), min(s.tileK, g.Nz)) + 3) * min(g.Nx, planeLanes)
}

// tileBlock returns block i of tile tl's direction-d sweep, and false
// past the last: the tile's x rows (k outer, j inner), each one line of
// Nx+2 lanes, or its k (y) or j (z) face planes, each in x chunks of up
// to planeLanes lanes.
func (s *Solver) tileBlock(tl tileSpan, d state.Direction, i int) (faceBlock, bool) {
	g := s.G
	if d == state.X {
		nj := tl.j1 - tl.j0
		j, k := tl.j0+i%nj, tl.k0+i/nj
		return faceBlock{d: d, base: g.Idx(g.IBeg()-1, j, k), stride: 1, lines: 1, lanes: g.Nx + 2,
			next: 1, dx: g.Dx}, k < tl.k1
	}
	chunks := (g.Nx + planeLanes - 1) / planeLanes
	p, i0 := i/chunks, i%chunks*planeLanes
	nl := min(planeLanes, g.Nx-i0)
	if d == state.Y {
		k := tl.k0 + p
		return faceBlock{d: d, base: g.Idx(g.IBeg()+i0, tl.j0-1, k), stride: g.TotalX,
			lines: tl.j1 - tl.j0 + 2, lanes: nl, next: nl, dx: g.Dy}, k < tl.k1
	}
	j := tl.j0 + p
	return faceBlock{d: d, base: g.Idx(g.IBeg()+i0, j, tl.k0-1), stride: g.TotalX * g.TotalY,
		lines: tl.k1 - tl.k0 + 2, lanes: nl, next: nl, dx: g.Dz}, j < tl.j1
}

// sweepTile accumulates the full flux divergence of one pencil tile. The
// direction order is fixed — first active dimension overwrites, the rest
// accumulate — so every cell sees the same sum whichever tile owns it.
func (s *Solver) sweepTile(tl tileSpan, sc *rowScratch, rhs *state.Fields) {
	for di, d := range s.G.ActiveDims() {
		for i := 0; ; i++ {
			blk, ok := s.tileBlock(tl, d, i)
			if !ok {
				break
			}
			s.m.fluxes(s.G.W, &blk, sc)
			accumulate(&sc.fx, rhs, &blk, di == 0)
			if s.trc != nil {
				s.tracerSweep(&blk, sc)
			}
		}
	}
}

// accumulate folds the face flux differences −(F₊ − F₋)/dx into the owned
// cells of block blk. Overwrite mode writes 0 − ΔF/dx — bitwise what
// accumulation into a zeroed rhs produces (including the sign of zero) —
// so ComputeRHS can skip the rhs.Zero() pass.
func accumulate(fx *[state.NComp][]float64, rhs *state.Fields, blk *faceBlock, overwrite bool) {
	invDx := 1 / blk.dx
	end := blk.lines*blk.lanes - blk.next
	for q := range blk.lines {
		lo, hi, off := blk.run(q, blk.next, end)
		if lo >= hi {
			continue
		}
		for c := range fx {
			o := rhs.Comp[c][off+lo:][:hi-lo]
			fm := fx[c][lo:][:len(o)]
			fp := fx[c][lo+blk.next:][:len(o)]
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
