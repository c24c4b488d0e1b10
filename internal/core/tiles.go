package core

// Cache-blocked tile engine. The RHS traversal is one pass over pencil
// tiles: the (j, k) plane is partitioned into tileJ×tileK blocks, and
// each tile evaluates its x rows, its y-face sweeps, and its z-face
// sweeps while the tile's primitives and rhs rows are still cache
// resident — W is streamed once per RK stage, not once per direction.
//
// Every direction sweeps along x. The x sweep runs full pencil rows. The
// y and z sweeps run face planes: for each of the tile's k planes (y) or
// j planes (z), the cell lines j0−1 … j1 (or k0−1 … k1) are read in place
// from W as runs of Nx contiguous cells, with no transpose. The scheme's
// edge kernel (recon.Scheme.Edges) turns each cell line and its stencil
// lines, ±Ghost() lines away, into the right states of the faces below
// it and the left states of the faces above; the admissibility pass, the
// two riemann.EvalRow calls and Kind.FluxRow then run once over the
// plane's face lines laid end to end, and the flux differences accumulate
// contiguously. A face is computed from exactly the cells a full-row
// sweep would read, with the same operations, so plane fluxes are
// bitwise identical to full-row fluxes. Faces on tile boundaries are
// computed by both adjacent tiles (identical inputs, identical values);
// each tile accumulates only its own cells, so tiles are disjoint in rhs
// and safe to run concurrently.
//
// Bitwise reproducibility: every interior cell receives its directional
// contributions in the fixed order X (overwrite), then Y, then Z, and
// each contribution is the same flux difference, so the rhs is bitwise
// identical for any tile size, any worker count, and any TileExec
// chunking — and to the three grid-wide directional passes this engine
// replaced, whose results testdata/strip_golden.json freezes (see
// TestTiledBitwiseInvariance and docs/PERFORMANCE.md).

import (
	"rhsc/internal/riemann"
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

// planeLanes caps the x extent of one face plane. The plane's face
// lines lie end to end in the row scratch, so its slots grow with the
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

// planeSlots is the face slots one plane sweep needs: the most cell
// lines a tile plane owns (the tile extent, or the grid's where the tile
// is larger) plus the one on each side, each of up to planeLanes lanes,
// and one more line of slots (see sweepPlane); zero for a grid with only x.
func (s *Solver) planeSlots() int {
	g := s.G
	if g.Ny == 1 && g.Nz == 1 {
		return 0
	}
	return (max(min(s.tileJ, g.Ny), min(s.tileK, g.Nz)) + 3) * min(g.Nx, planeLanes)
}

// sweepTile accumulates the full flux divergence of one pencil tile. The
// direction order is fixed — first active dimension overwrites, the rest
// accumulate — so every cell sees the same sum whichever tile owns it.
func (s *Solver) sweepTile(tl tileSpan, sc *rowScratch, rhs *state.Fields) {
	g := s.G
	overwrite := true
	for _, d := range g.ActiveDims() {
		switch d {
		case state.X:
			for k := tl.k0; k < tl.k1; k++ {
				for j := tl.j0; j < tl.j1; j++ {
					s.sweepRow(g.Idx(0, j, k), sc, rhs, overwrite)
				}
			}
		case state.Y:
			for k := tl.k0; k < tl.k1; k++ {
				s.sweepPlane(d, g.Idx(g.IBeg(), tl.j0, k), g.TotalX, tl.j1-tl.j0, g.Dy,
					sc, rhs, overwrite)
			}
		default:
			for j := tl.j0; j < tl.j1; j++ {
				s.sweepPlane(d, g.Idx(g.IBeg(), j, tl.k0), g.TotalX*g.TotalY, tl.k1-tl.k0, g.Dz,
					sc, rhs, overwrite)
			}
		}
		overwrite = false
	}
}

// sweepPlane runs the direction-d faces of nc owned cell lines of one
// tile plane: base is the W index of the first owned line's first
// interior cell and stride the W distance between adjacent lines. In
// chunks of up to planeLanes x lanes, cell line q = 0 … nc+1 (the owned
// lines and one neighbour on each side) writes its left edges to face
// line q of sc.fr and its right edges to face line q+1 of sc.fl, so face
// line q holds the face between cell lines q−1 and q, and face lines
// 1 … nc+1 are the owned cells' faces.
func (s *Solver) sweepPlane(d state.Direction, base, stride, nc int, dx float64,
	sc *rowScratch, rhs *state.Fields, overwrite bool) {

	m := &s.m
	w := &s.G.W.Comp
	for i0 := 0; i0 < s.G.Nx; i0 += planeLanes {
		nl := min(planeLanes, s.G.Nx-i0)
		b := base + i0
		for c := range w {
			m.recon.Edges(w[c], b-stride, stride, nc+2, sc.fr[c][:(nc+2)*nl], sc.fl[c][nl:(nc+3)*nl])
		}
		for q := 1; q <= nc+1; q++ {
			admit(&sc.fl, q*nl, (q+1)*nl, w, b+(q-2)*stride)
			admit(&sc.fr, q*nl, (q+1)*nl, w, b+(q-1)*stride)
		}
		// The evaluated face slabs hold a row's faces, so the plane's face
		// lines go through EvalRow and FluxRow in runs of as many lines as
		// fit: the whole plane where it fits, else a line at a time.
		run, hi := len(sc.l.D)/nl*nl, (nc+2)*nl
		for f0 := nl; f0 < hi; f0 += run {
			n := min(run, hi-f0)
			var ql, qr, fx [state.NComp][]float64
			for c := range ql {
				ql[c], qr[c], fx[c] = sc.fl[c][f0:], sc.fr[c][f0:], sc.fx[c][f0:]
			}
			riemann.EvalRow(&sc.l, &ql, m.eos, d, 0, n)
			riemann.EvalRow(&sc.r, &qr, m.eos, d, 0, n)
			m.kind.FluxRow(&sc.l, &sc.r, &fx, d, 0, n)
		}
		accumulate(&sc.fx, rhs, b, stride, nl, nl, nc, nl, dx, overwrite)
		if s.trc != nil {
			s.tracerSweep(b, stride, nl, nl, nc, nl, dx, sc)
		}
	}
}
