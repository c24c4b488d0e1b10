package amr

import (
	"sort"

	"rhsc/internal/grid"
	"rhsc/internal/state"
)

// indicator returns the refinement indicator of a leaf: the maximum
// relative jump of density or pressure between adjacent interior cells.
func (t *Tree) indicator(n *node) float64 {
	g := n.sol.G
	w := g.W
	maxJump := 0.0
	jump := func(a, b float64) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		s := a + b
		if s <= 0 {
			return 0
		}
		return d / s
	}
	// Pairs include one ghost layer on each side so a discontinuity
	// sitting exactly on a block boundary is still seen.
	for k := g.KBeg(); k < g.KEnd(); k++ {
		for j := g.JBeg(); j < g.JEnd(); j++ {
			row := (k*g.TotalY + j) * g.TotalX
			for i := g.IBeg(); i <= g.IEnd(); i++ {
				if v := jump(w.Comp[state.IRho][row+i], w.Comp[state.IRho][row+i-1]); v > maxJump {
					maxJump = v
				}
				if v := jump(w.Comp[state.IP][row+i], w.Comp[state.IP][row+i-1]); v > maxJump {
					maxJump = v
				}
			}
		}
	}
	if t.dim >= 2 {
		stride := g.TotalX
		for k := g.KBeg(); k < g.KEnd(); k++ {
			for j := g.JBeg(); j <= g.JEnd(); j++ {
				for i := g.IBeg(); i < g.IEnd(); i++ {
					idx := g.Idx(i, j, k)
					if v := jump(w.Comp[state.IRho][idx], w.Comp[state.IRho][idx-stride]); v > maxJump {
						maxJump = v
					}
					if v := jump(w.Comp[state.IP][idx], w.Comp[state.IP][idx-stride]); v > maxJump {
						maxJump = v
					}
				}
			}
		}
	}
	return maxJump
}

// childCount returns children per refinement (2 in 1-D, 4 in 2-D).
func (t *Tree) childCount() int {
	if t.dim == 1 {
		return 2
	}
	return 4
}

// refine splits a leaf into children, prolongating the conserved state
// piecewise-constantly (conservative on the uniform 2:1 split).
func (t *Tree) refine(n *node) error {
	if !n.leaf() {
		return nil
	}
	nc := t.childCount()
	n.children = make([]*node, nc)
	for c := 0; c < nc; c++ {
		cx := c % 2
		cy := c / 2
		child := &node{
			level:  n.level + 1,
			bi:     n.bi*2 + cx,
			bj:     n.bj, // 1-D keeps bj
			parent: n,
		}
		if t.dim >= 2 {
			child.bj = n.bj*2 + cy
		}
		if err := t.attachSolver(child); err != nil {
			return err
		}
		// Prolongate conserved data from the parent cell containing each
		// child cell centre.
		pg := n.sol.G
		cg := child.sol.G
		cg.ForEachInterior(func(idx, i, j, k int) {
			pi := pg.IBeg() + int((cg.X(i)-pg.X0)/pg.Dx)
			if pi >= pg.IEnd() {
				pi = pg.IEnd() - 1
			}
			pj := pg.JBeg()
			if t.dim >= 2 {
				pj = pg.JBeg() + int((cg.Y(j)-pg.Y0)/pg.Dy)
				if pj >= pg.JEnd() {
					pj = pg.JEnd() - 1
				}
			}
			cg.U.SetCons(idx, pg.U.GetCons(pg.Idx(pi, pj, pg.KBeg())))
		})
		child.sol.SetTime(t.t)
		// Recover the child's primitives immediately: regrid decisions in
		// the same pass read them.
		child.sol.RecoverPrimitives()
		t.nodes[key{child.level, child.bi, child.bj}] = child
		n.children[c] = child
	}
	// The parent becomes structural.
	n.sol = nil
	return nil
}

// coarsen merges a parent's leaf children back into the parent by
// conservative averaging. The caller must have verified balance.
func (t *Tree) coarsen(n *node) error {
	if n.leaf() {
		return nil
	}
	if err := t.attachSolver(n); err != nil {
		return err
	}
	pg := n.sol.G
	nc := len(n.children)
	inv := 1.0 / float64(int(1)<<t.dim)
	pg.ForEachInterior(func(idx, i, j, k int) {
		var acc state.Cons
		for c := 0; c < nc; c++ {
			cg := n.children[c].sol.G
			// Child cells covering parent cell (i,j): locate by centre
			// offset ±dx/4.
			for _, fx := range [2]float64{-0.25, 0.25} {
				x := pg.X(i) + fx*pg.Dx
				if x < cg.X0 || x >= cg.X1 {
					continue
				}
				ci := cg.IBeg() + int((x-cg.X0)/cg.Dx)
				if ci >= cg.IEnd() {
					ci = cg.IEnd() - 1
				}
				if t.dim == 1 {
					u := cg.U.GetCons(cg.Idx(ci, cg.JBeg(), cg.KBeg()))
					acc.D += u.D
					acc.Sx += u.Sx
					acc.Sy += u.Sy
					acc.Sz += u.Sz
					acc.Tau += u.Tau
					continue
				}
				for _, fy := range [2]float64{-0.25, 0.25} {
					y := pg.Y(j) + fy*pg.Dy
					if y < cg.Y0 || y >= cg.Y1 {
						continue
					}
					cj := cg.JBeg() + int((y-cg.Y0)/cg.Dy)
					if cj >= cg.JEnd() {
						cj = cg.JEnd() - 1
					}
					u := cg.U.GetCons(cg.Idx(ci, cj, cg.KBeg()))
					acc.D += u.D
					acc.Sx += u.Sx
					acc.Sy += u.Sy
					acc.Sz += u.Sz
					acc.Tau += u.Tau
				}
			}
		}
		acc.D *= inv
		acc.Sx *= inv
		acc.Sy *= inv
		acc.Sz *= inv
		acc.Tau *= inv
		pg.U.SetCons(idx, acc)
	})
	for _, c := range n.children {
		delete(t.nodes, key{c.level, c.bi, c.bj})
	}
	n.children = nil
	n.sol.SetTime(t.t)
	n.sol.RecoverPrimitives()
	return nil
}

// neighborKeys returns the same-level block coordinates adjacent to n
// across each face (with periodic wrapping), or skips faces on
// non-periodic domain boundaries.
func (t *Tree) neighborKeys(n *node) []key {
	periodic := t.prob.BC == grid.Periodic
	nbxL := t.nbx << n.level
	nbyL := t.nby << n.level
	var out []key
	addX := func(bi int) {
		if bi < 0 || bi >= nbxL {
			if !periodic {
				return
			}
			bi = (bi + nbxL) % nbxL
		}
		out = append(out, key{n.level, bi, n.bj})
	}
	addX(n.bi - 1)
	addX(n.bi + 1)
	if t.dim >= 2 {
		addY := func(bj int) {
			if bj < 0 || bj >= nbyL {
				if !periodic {
					return
				}
				bj = (bj + nbyL) % nbyL
			}
			out = append(out, key{n.level, n.bi, bj})
		}
		addY(n.bj - 1)
		addY(n.bj + 1)
	}
	return out
}

// regionMaxLevel returns the deepest leaf level inside the block region
// identified by k (which may itself be refined, exactly matched, or
// covered by a coarser leaf).
func (t *Tree) regionMaxLevel(k key) int {
	if n, ok := t.nodes[k]; ok {
		return deepest(n)
	}
	// Covered by a coarser node: walk up.
	for l, bi, bj := k.level, k.bi, k.bj; l > 0; {
		l--
		bi >>= 1
		if t.dim >= 2 {
			bj >>= 1
		}
		if n, ok := t.nodes[key{l, bi, bj}]; ok {
			return deepest(n)
		}
	}
	return 0
}

func deepest(n *node) int {
	if n.leaf() {
		return n.level
	}
	m := n.level
	for _, c := range n.children {
		if d := deepest(c); d > m {
			m = d
		}
	}
	return m
}

// regrid evaluates refinement flags, enforces 2:1 balance, refines and
// coarsens, and rebuilds the leaf cache. It reports whether the hierarchy
// changed.
func (t *Tree) regrid() bool { return t.regridWith(t.indicator) }

// regridWith is regrid with an injectable indicator: the distributed
// driver supplies allgathered per-leaf values so that every rank replica
// makes identical decisions. All structural choices (refine flags,
// balance cascade, coarsen order) are deterministic functions of the
// supplied indicator and the tree structure.
func (t *Tree) regridWith(ind func(n *node) float64) bool {
	changed := false

	// Refinement flags from the indicator.
	want := map[*node]bool{}
	for _, n := range t.leaves {
		if n.level < t.cfg.MaxLevel && ind(n) > t.cfg.RefineTol {
			want[n] = true
		}
	}
	// Refine, then cascade to preserve 2:1 balance: any leaf whose
	// neighbouring region is ≥ 2 levels deeper must refine too.
	for pass := 0; pass < t.cfg.MaxLevel+2; pass++ {
		for n := range want {
			if n.leaf() {
				if err := t.refine(n); err != nil {
					panic(err)
				}
				changed = true
			}
			delete(want, n)
		}
		t.rebuildLeaves()
		for _, n := range t.leaves {
			if n.level >= t.cfg.MaxLevel {
				continue
			}
			for _, k := range t.neighborKeys(n) {
				if t.regionMaxLevel(k) > n.level+1 {
					want[n] = true
					break
				}
			}
		}
		if len(want) == 0 {
			break
		}
	}

	// Coarsening: a parent whose children are all quiet leaves merges,
	// provided the merge keeps every neighbouring region within one
	// level of the parent. The candidates are visited in sorted order
	// (deepest level first, then block coordinates) — map iteration
	// order would make the outcome of neighbour-guard interactions
	// nondeterministic, which distributed rank replicas cannot tolerate.
	// Only children that entered the pass as leaves qualify: allowing a
	// freshly merged parent to merge again same-pass would coarsen two
	// levels at once, whose restriction stencil reaches two block-widths
	// from the surviving first child — beyond the one-block halo ring
	// the distributed driver keeps fresh. A deep cascade instead settles
	// over consecutive regrid events.
	preLeaf := map[*node]bool{}
	parentSet := map[*node]bool{}
	for _, n := range t.leaves {
		preLeaf[n] = true
		if n.parent == nil {
			continue
		}
		parentSet[n.parent] = true
	}
	parents := make([]*node, 0, len(parentSet))
	for p := range parentSet {
		parents = append(parents, p)
	}
	sort.Slice(parents, func(i, j int) bool {
		a, b := parents[i], parents[j]
		if a.level != b.level {
			return a.level > b.level
		}
		if a.bj != b.bj {
			return a.bj < b.bj
		}
		return a.bi < b.bi
	})
	for _, p := range parents {
		ok := true
		for _, c := range p.children {
			if !c.leaf() || !preLeaf[c] || ind(c) > t.cfg.CoarsenTol {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, k := range t.neighborKeys(p) {
			if t.regionMaxLevel(k) > p.level+1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if err := t.coarsen(p); err != nil {
			panic(err)
		}
		changed = true
	}
	if changed {
		t.rebuildLeaves()
	}
	return changed
}
