package core

// Cache-blocked tile engine. The RHS traversal is one pass over pencil
// tiles: the (j, k) plane is partitioned into tileJ×tileK blocks, and
// each tile evaluates its x rows, its y-face sweeps, and its z-face
// sweeps while the tile's primitives and rhs rows are still cache
// resident — W is streamed once per RK stage, not once per direction.
//
// Within a tile the y/z strips are gathered through panel transposes
// (state.PanelGather): short segments of panelW adjacent x columns are
// copied in contiguous runs per component instead of per-element strided
// loads. A y/z segment covers the tile's cells plus the grid ghost width
// on each side, which is enough stencil for any configured
// reconstruction (grid.Ng ≥ Recon.Ghost()), so every face value is
// computed from exactly the cells the full-row sweep would read —
// segment fluxes are bitwise identical to full-row fluxes. Faces on tile
// boundaries are computed by both adjacent tiles (identical inputs,
// identical values); each tile accumulates only its own cells, so tiles
// are disjoint in rhs and safe to run concurrently.
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

// PanelW is the panel-transpose width of the tiled y/z sweeps: eight
// float64 columns — one 64-byte cache line per gathered row.
const PanelW = panelW

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

// sweepTile accumulates the full flux divergence of one pencil tile. The
// direction order is fixed — first active dimension overwrites, the rest
// accumulate — so every cell sees the same sum whichever tile owns it.
func (s *Solver) sweepTile(tl tileSpan, sc *rowScratch, rhs *state.Fields) {
	g := s.G
	ng := g.Ng
	overwrite := true
	for _, d := range g.ActiveDims() {
		switch d {
		case state.X:
			// Full pencil rows: stride 1, aliased straight from W.
			for k := tl.k0; k < tl.k1; k++ {
				for j := tl.j0; j < tl.j1; j++ {
					s.sweepRow(d, g.Idx(0, j, k), 1, g.TotalX, g.IBeg(), g.IEnd(), g.Dx,
						sc, rhs, overwrite)
				}
			}
		case state.Y:
			// Per k-plane, panels of adjacent x columns sweep the tile's
			// y segment [j0−Ng, j1+Ng): faces j0..j1 come out of cells
			// the full row would use, so segment cBeg/cEnd are simply Ng
			// and Ng+(j1−j0) in segment-local coordinates.
			nseg := tl.j1 - tl.j0 + 2*ng
			for k := tl.k0; k < tl.k1; k++ {
				for i := g.IBeg(); i < g.IEnd(); i += panelW {
					p := g.IEnd() - i
					if p > panelW {
						p = panelW
					}
					s.sweepPanel(d, g.Idx(i, tl.j0-ng, k), g.TotalX, nseg,
						ng, ng+(tl.j1-tl.j0), g.Dy, p, sc, rhs, overwrite)
				}
			}
		default:
			nseg := tl.k1 - tl.k0 + 2*ng
			for j := tl.j0; j < tl.j1; j++ {
				for i := g.IBeg(); i < g.IEnd(); i += panelW {
					p := g.IEnd() - i
					if p > panelW {
						p = panelW
					}
					s.sweepPanel(d, g.Idx(i, j, tl.k0-ng), g.TotalX*g.TotalY, nseg,
						ng, ng+(tl.k1-tl.k0), g.Dz, p, sc, rhs, overwrite)
				}
			}
		}
		overwrite = false
	}
}
