package amr

import (
	"fmt"
	"math"
	"sort"

	"rhsc/internal/grid"
)

// This file is the distribution interface of the tree: the minimal set of
// exported, leaf-indexed operations package damr needs, beside StepLeaves
// and the two core.StepHooks (amr.go), to run one Tree replica per rank in
// lockstep. Leaves are addressed by their index into
// the current leaf ordering (deterministic depth-first traversal); the
// ordering — and therefore every index — is invalidated by a regrid, so
// callers re-enumerate via LeafRefs after RegridWithIndicators reports a
// change.

// BlockRef identifies a block by refinement level and block coordinates.
// It is stable across processes and regrids (unlike leaf indices).
type BlockRef struct {
	Level, Bi, Bj int
}

// Parent returns the ref of the containing block one level up.
func (r BlockRef) Parent(dim int) BlockRef {
	p := BlockRef{Level: r.Level - 1, Bi: r.Bi >> 1, Bj: r.Bj}
	if dim >= 2 {
		p.Bj = r.Bj >> 1
	}
	return p
}

// FirstChild returns the ref of the Morton-first (lower-left) child.
func (r BlockRef) FirstChild(dim int) BlockRef {
	c := BlockRef{Level: r.Level + 1, Bi: r.Bi << 1, Bj: r.Bj}
	if dim >= 2 {
		c.Bj = r.Bj << 1
	}
	return c
}

// Dim returns the dimensionality of the tree's problem (1 or 2).
func (t *Tree) Dim() int { return t.dim }

// RootBlocks returns the root-level block counts along x and y.
func (t *Tree) RootBlocks() (nbx, nby int) { return t.nbx, t.nby }

// RegridEvery returns the configured regrid cadence.
func (t *Tree) RegridEvery() int { return t.cfg.RegridEvery }

// Steps returns the number of completed time steps.
func (t *Tree) Steps() int { return t.steps }

// LeafRefs returns the refs of the current leaves, aligned with the leaf
// indices every other method in this file accepts.
func (t *Tree) LeafRefs() []BlockRef {
	refs := make([]BlockRef, len(t.leaves))
	for i, n := range t.leaves {
		refs[i] = BlockRef{Level: n.level, Bi: n.bi, Bj: n.bj}
	}
	return refs
}

// LeafZones returns the number of interior zones of leaf i.
func (t *Tree) LeafZones(i int) int {
	g := t.leaves[i].sol.G
	return g.Nx * g.Ny
}

// LeafRawU returns the raw conserved storage of leaf i (interior and
// ghosts, component-major). The slice aliases the live solver state: a
// distributed driver overwrites it wholesale when installing a received
// halo copy, and reads it when packing one.
func (t *Tree) LeafRawU(i int) []float64 { return t.leaves[i].sol.G.U.Raw() }

// LeafIndicator returns the refinement indicator of leaf i. It reads the
// leaf's interior and one ghost layer, so ghosts must be current.
func (t *Tree) LeafIndicator(i int) float64 { return t.indicator(t.leaves[i]) }

// LeafNeighborRefs returns the refs of every leaf overlapping the
// one-block ring (faces and corners) around leaf i, excluding i itself.
// Corners are included deliberately: ghost sampling only reads face
// neighbours, but conservative restriction during coarsening reads all
// sibling blocks of a parent, and the diagonal sibling is a corner
// neighbour of the Morton-first child.
func (t *Tree) LeafNeighborRefs(i int) []BlockRef {
	n := t.leaves[i]
	periodic := t.prob.BC == grid.Periodic
	nbxL := t.nbx << n.level
	nbyL := t.nby << n.level
	seen := map[BlockRef]bool{}
	var out []BlockRef
	// add collects the leaves covering ring region k that actually touch
	// leaf n. A leaf coarser than (or equal to) the ring region touches n
	// because the whole region does; a finer descendant touches n only if
	// it reaches the region's edge facing n (di, dj say which edge) —
	// without this filter a coarse leaf would claim every fine leaf
	// buried inside its neighbouring region, and the relation would stop
	// being symmetric, which the distributed exchange plan relies on.
	add := func(k key, di, dj int) {
		for _, m := range t.coveringLeaves(k) {
			if m == n || m.level > k.level && !touchesEdge(m, k, di, dj, t.dim) {
				continue
			}
			r := BlockRef{Level: m.level, Bi: m.bi, Bj: m.bj}
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	djs := []int{0}
	if t.dim >= 2 {
		djs = []int{-1, 0, 1}
	}
	for _, dj := range djs {
		for di := -1; di <= 1; di++ {
			if di == 0 && dj == 0 {
				continue
			}
			bi, bj := n.bi+di, n.bj+dj
			if bi < 0 || bi >= nbxL {
				if !periodic {
					continue
				}
				bi = (bi + nbxL) % nbxL
			}
			if bj < 0 || bj >= nbyL {
				if !periodic {
					continue
				}
				bj = (bj + nbyL) % nbyL
			}
			add(key{n.level, bi, bj}, di, dj)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.Level != y.Level {
			return x.Level < y.Level
		}
		if x.Bj != y.Bj {
			return x.Bj < y.Bj
		}
		return x.Bi < y.Bi
	})
	return out
}

// touchesEdge reports whether block m (a strict descendant of region k)
// reaches the edge of k adjacent to the leaf the ring was built around:
// the +x edge when di < 0 (k lies to the left of the leaf), the −x edge
// when di > 0, and likewise in y; a zero offset puts no constraint on
// that axis. A diagonal offset demands both, shrinking the match to the
// corner-touching descendant.
func touchesEdge(m *node, k key, di, dj, dim int) bool {
	shift := uint(m.level - k.level)
	x0 := k.bi << shift
	x1 := (k.bi + 1) << shift
	switch {
	case di < 0 && m.bi+1 != x1:
		return false
	case di > 0 && m.bi != x0:
		return false
	}
	if dim >= 2 {
		y0 := k.bj << shift
		y1 := (k.bj + 1) << shift
		switch {
		case dj < 0 && m.bj+1 != y1:
			return false
		case dj > 0 && m.bj != y0:
			return false
		}
	}
	return true
}

// coveringLeaves returns the leaves covering the block region k: the leaf
// descendants of the node at k, or the coarser leaf containing k.
func (t *Tree) coveringLeaves(k key) []*node {
	if n, ok := t.nodes[k]; ok {
		var out []*node
		var walk func(m *node)
		walk = func(m *node) {
			if m.leaf() {
				out = append(out, m)
				return
			}
			for _, c := range m.children {
				walk(c)
			}
		}
		walk(n)
		return out
	}
	for l, bi, bj := k.level, k.bi, k.bj; l > 0; {
		l--
		bi >>= 1
		if t.dim >= 2 {
			bj >>= 1
		}
		if n, ok := t.nodes[key{l, bi, bj}]; ok {
			if n.leaf() {
				return []*node{n}
			}
			// The region is covered by a refined ancestor but the exact
			// key is absent — structurally impossible on a consistent
			// tree.
			panic(fmt.Sprintf("amr: region L%d (%d,%d) under refined non-leaf", k.level, k.bi, k.bj))
		}
	}
	return nil
}

// SyncSubset recovers primitives on the `recover` leaves and refills the
// External ghosts of the `ghosts` leaves. The ghost fill of a leaf reads
// the recovered interiors of its neighbours, so `recover` must cover the
// neighbourhood of every leaf in `ghosts`.
func (t *Tree) SyncSubset(recover, ghosts []int) {
	for _, i := range recover {
		t.leaves[i].sol.RecoverPrimitives()
	}
	t.fillGhostsOf(ghosts)
}

// ArmCFL arms the next primitive recovery of the given leaves to fold the
// CFL reduction into its pass (core.Solver.AccumulateCFLNext), so the
// following MaxDtOf is a cheap per-leaf combine. Arm only a recovery whose
// state is the one MaxDt will be asked about: core.StepSolvers arms the
// last stage's, drivers the post-regrid one.
func (t *Tree) ArmCFL(idx []int) {
	for _, i := range idx {
		t.leaves[i].sol.AccumulateCFLNext()
	}
}

// SyncAll re-establishes the full primitive/ghost invariant on every leaf
// (exported for drivers that bulk-install conserved data).
func (t *Tree) SyncAll() { t.sync() }

// MaxDtOf returns the CFL step minimised over the given leaves (+Inf for
// an empty set, ready for an all-reduce).
func (t *Tree) MaxDtOf(idx []int) float64 {
	dt := math.Inf(1)
	for _, i := range idx {
		if d := t.leaves[i].sol.MaxDt(); d < dt {
			dt = d
		}
	}
	return dt
}

// RegridWithIndicators runs the regrid cycle with externally supplied
// per-leaf indicator values (keyed by ref; typically allgathered from the
// owning ranks). Leaves created during the cycle itself fall back to the
// locally computed indicator, which is exactly 1 for any freshly built
// block (its External ghosts are still zero), on every rank alike — so
// the outcome is identical across replicas regardless of which leaf data
// is locally fresh. It reports whether the hierarchy changed.
func (t *Tree) RegridWithIndicators(vals map[BlockRef]float64) bool {
	return t.regridWith(func(n *node) float64 {
		if v, ok := vals[BlockRef{Level: n.level, Bi: n.bi, Bj: n.bj}]; ok {
			return v
		}
		return t.indicator(n)
	})
}
