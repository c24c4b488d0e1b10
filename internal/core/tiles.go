package core

// Cache-blocked tile engine. The RHS traversal is one pass over pencil
// tiles: the (j, k) plane is partitioned into tileJ×tileK blocks, and
// each tile evaluates its x rows, its y-face sweeps, and its z-face
// sweeps while the tile's primitives and rhs rows are still cache
// resident — W is streamed once per RK stage, not once per direction.
//
// Every direction runs the one face pipeline (flux.go) on the face
// blocks of grid.Grid.EachBlock, read in place from W: the tile's x rows
// of Nx+2 cells, then its y and z face planes in x chunks. Faces on tile
// boundaries are computed by both adjacent tiles (identical inputs,
// identical values); each tile accumulates only its own cells, so tiles
// are disjoint in rhs and safe to run concurrently. The fail-safe repair
// (failsafe.go) walks the same blocks.
//
// Bitwise reproducibility: every interior cell receives its directional
// contributions in the fixed order X (overwrite), then Y, then Z, and
// each contribution is the same flux difference, so the rhs is bitwise
// identical for any tile size, any worker count, and any TileExec
// chunking — and to the three grid-wide directional passes this engine
// replaced, whose results testdata/strip_golden.json freezes (see
// TestTiledBitwiseInvariance and docs/PERFORMANCE.md).

import (
	"rhsc/internal/grid"
	"rhsc/internal/state"
)

// Default pencil-tile extents: 8×8 keeps a 3-D tile's working set —
// (tileJ+2Ng)(tileK+2Ng) full x rows of five components — within a few
// hundred KB for production row lengths, inside L2, while leaving enough
// tiles for the pool to balance.
const (
	defaultTileJ = 8
	defaultTileK = 8
)

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
			s.tiles = append(s.tiles, grid.Tile{J0: j0, J1: j1, K0: k0, K1: k1})
		}
	}
	s.tileChunk = func(lo, hi int) { s.sweepTiles(lo, hi, s.curRHS) }
}

// TileZones returns the number of interior zones tiles [lo, hi) own (the
// work unit for device cost models; edge tiles are smaller).
func (s *Solver) TileZones(lo, hi int) int {
	pencils := 0
	for _, tl := range s.tiles[lo:hi] {
		pencils += (tl.J1 - tl.J0) * (tl.K1 - tl.K0)
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

// sweepTile accumulates the full flux divergence of one pencil tile. The
// direction order is fixed — first active dimension overwrites, the rest
// accumulate — so every cell sees the same sum whichever tile owns it.
func (s *Solver) sweepTile(tl grid.Tile, sc *rowScratch, rhs *state.Fields) {
	for di, d := range s.G.ActiveDims() {
		s.G.EachBlock(tl, d, func(blk grid.FaceBlock) {
			s.m.fluxes(s.G.W, &blk, sc)
			blk.Accumulate(&sc.fx, rhs, di == 0)
			if s.trc != nil {
				s.tracerSweep(&blk, sc)
			}
		})
	}
}
