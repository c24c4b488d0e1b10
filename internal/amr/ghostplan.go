package amr

import (
	"rhsc/internal/grid"
	"rhsc/internal/state"
)

// ghostPlan is the External ghost fill of one leaf, resolved once per
// leaf ordering: dst[k] is the flat index of the k-th ghost cell and
// src[2·ns·k : 2·ns·(k+1)] its ns = 2^dim sources as (leaf index, flat
// cell index) pairs, in the order the point sampling visited the
// quarter-offset sub-points (−x before +x, −y row before +y row).
//
// The sources are pure geometry — which leaf covers a sub-point and which
// of its cells contains it — so a plan stays valid exactly as long as the
// leaf ordering it indexes. Tree.plans is parallel to Tree.leaves and
// rebuildLeaves drops every plan when, and only when, that ordering
// changes; a plan is then rebuilt the first time its leaf is filled, which
// on a damr rank replica is only ever an owned leaf.
//
// Replay reads the same cells and applies the same arithmetic, in the same
// order, as sampling each sub-point through locate did, so the filled
// ghosts are bitwise identical (TestGhostPlanMatchesSampling keeps the
// point-sampling bodies as the reference).
type ghostPlan struct {
	built bool
	dst   []int32
	src   []int32
}

// ghostPlanOf returns the plan of leaf li, building it on first use after
// the leaf ordering changed.
func (t *Tree) ghostPlanOf(li int) *ghostPlan {
	p := &t.plans[li]
	if p.built {
		return p
	}
	g := t.leaves[li].sol.G
	// Sized exactly, so a tree replica carries no append slack per leaf.
	if p.dst == nil {
		n := 0
		t.forExternalGhosts(g, func(int, int) { n++ })
		p.dst = make([]int32, 0, n)
		p.src = make([]int32, 0, n*(2<<t.dim))
	}
	add := func(x, y float64) {
		n, cell := t.locate(x, y)
		p.src = append(p.src, int32(n.li), int32(cell))
	}
	t.forExternalGhosts(g, func(i, j int) {
		p.dst = append(p.dst, int32(g.Idx(i, j, g.KBeg())))
		x, y, dx, dy := g.X(i), g.Y(j), g.Dx, g.Dy
		if t.dim == 1 {
			add(x-0.25*dx, y)
			add(x+0.25*dx, y)
			return
		}
		for _, fy := range [2]float64{-0.25, 0.25} {
			for _, fx := range [2]float64{-0.25, 0.25} {
				add(x+fx*dx, y+fy*dy)
			}
		}
	})
	p.built = true
	return p
}

// forExternalGhosts calls fill for every ghost cell (i, j) behind an
// External face of g — the bands the primitive ghost fill and the
// fail-safe mask ghost fill both replay, so a troubled flag next to a block
// face lands in exactly the ghost cells whose primitives it dirties.
func (t *Tree) forExternalGhosts(g *grid.Grid, fill func(i, j int)) {
	ng := g.Ng
	if g.BCs[0][0] == grid.External {
		for j := g.JBeg(); j < g.JEnd(); j++ {
			for i := 0; i < ng; i++ {
				fill(i, j)
			}
		}
	}
	if g.BCs[0][1] == grid.External {
		for j := g.JBeg(); j < g.JEnd(); j++ {
			for i := g.IEnd(); i < g.IEnd()+ng; i++ {
				fill(i, j)
			}
		}
	}
	if t.dim < 2 {
		return
	}
	if g.BCs[1][0] == grid.External {
		for j := 0; j < ng; j++ {
			for i := g.IBeg(); i < g.IEnd(); i++ {
				fill(i, j)
			}
		}
	}
	if g.BCs[1][1] == grid.External {
		for j := g.JEnd(); j < g.JEnd()+ng; j++ {
			for i := g.IBeg(); i < g.IEnd(); i++ {
				fill(i, j)
			}
		}
	}
}

// fillGhosts fills the External-face ghost zones of every leaf from the
// current leaf data.
func (t *Tree) fillGhosts() { t.fillGhostsOf(t.all) }

// fillGhostsOf fills the External-face ghost zones of the given leaves
// with the average of the primitives at each ghost cell's sub-points: one
// point per potential finer cell, which makes the fill exact for same-level
// and coarse neighbours and a conservative restriction for fine ones. The
// sources are interiors of face-adjacent leaves only (the ghost band is at
// most half a block wide at any admissible BlockN), which is what lets the
// distributed driver fill ghosts of locally owned blocks from a halo of
// neighbour copies.
func (t *Tree) fillGhostsOf(idx []int) {
	prim := func(s []int32) state.Prim {
		return t.leaves[s[0]].sol.G.W.GetPrim(int(s[1]))
	}
	for _, li := range idx {
		p := t.ghostPlanOf(li)
		w := t.leaves[li].sol.G.W
		if t.dim == 1 {
			for k, d := range p.dst {
				s := p.src[4*k : 4*k+4]
				w.SetPrim(int(d), avgPrim(prim(s), prim(s[2:])))
			}
			continue
		}
		for k, d := range p.dst {
			s := p.src[8*k : 8*k+8]
			w.SetPrim(int(d), avgPrim(avgPrim(prim(s), prim(s[2:])), avgPrim(prim(s[4:]), prim(s[6:]))))
		}
	}
}

// FillMaskGhostsOf fills External-face mask ghosts of the given leaves
// from neighbour interiors, over the plan fillGhostsOf replays: a ghost
// cell is dirty if any covering fine cell (or the one covering coarse
// cell) is flagged, so a flag next to a block face is visible from both
// sides before repair. The masks of face-adjacent leaves must be current.
// Tree.Step's and package damr's Masks hooks end with it.
func (t *Tree) FillMaskGhostsOf(idx []int) {
	ns := 2 << t.dim // int32s per ghost cell: 2^dim (leaf, cell) pairs
	for _, li := range idx {
		p := t.ghostPlanOf(li)
		mask := t.leaves[li].sol.FSMask()
		for k, d := range p.dst {
			var m uint8
			for s := p.src[ns*k : ns*(k+1)]; len(s) > 0; s = s[2:] {
				m |= t.leaves[s[0]].sol.FSMask()[s[1]]
			}
			mask[d] = m
		}
	}
}
