package amr

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"rhsc/internal/core"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// sampleAvg is the ghost fill as it was before the plan: average the
// primitives over the sub-points of a ghost cell centred at (x, y) with
// sizes (dx, dy), locating each sub-point's leaf and cell through the tree.
// Kept as the reference the plan replay must reproduce bit for bit.
func (t *Tree) sampleAvg(x, y, dx, dy float64) state.Prim {
	if t.dim == 1 {
		a, ia := t.locate(x-0.25*dx, y)
		b, ib := t.locate(x+0.25*dx, y)
		pa := a.sol.G.W.GetPrim(ia)
		pb := b.sol.G.W.GetPrim(ib)
		return avgPrim(pa, pb)
	}
	var ps [4]state.Prim
	c := 0
	for _, fy := range [2]float64{-0.25, 0.25} {
		for _, fx := range [2]float64{-0.25, 0.25} {
			n, i := t.locate(x+fx*dx, y+fy*dy)
			ps[c] = n.sol.G.W.GetPrim(i)
			c++
		}
	}
	return avgPrim(avgPrim(ps[0], ps[1]), avgPrim(ps[2], ps[3]))
}

// sampleMask is the reference of the mask ghost fill: OR the troubled
// flags at the sub-points sampleAvg averages.
func (t *Tree) sampleMask(x, y, dx, dy float64) uint8 {
	if t.dim == 1 {
		a, ia := t.locate(x-0.25*dx, y)
		b, ib := t.locate(x+0.25*dx, y)
		return a.sol.FSMask()[ia] | b.sol.FSMask()[ib]
	}
	var m uint8
	for _, fy := range [2]float64{-0.25, 0.25} {
		for _, fx := range [2]float64{-0.25, 0.25} {
			n, i := t.locate(x+fx*dx, y+fy*dy)
			m |= n.sol.FSMask()[i]
		}
	}
	return m
}

// checkGhostFill compares the plan replay with point sampling on every
// leaf of tr, for the primitives as they stand and for random troubled
// flags: the External ghosts are computed by the reference into copies,
// poisoned in place, refilled by the replay, and the whole arrays — every
// cell the replay should and should not have written — must agree bit for
// bit. It reports how many faces of each kind the tree has, and leaves the
// primitives as it found them and the masks clear.
func checkGhostFill(t *testing.T, tr *Tree, what string, rng *rand.Rand) (coarseToFine, fineToCoarse int) {
	t.Helper()
	wantW := make([]*state.Fields, len(tr.leaves))
	wantM := make([][]uint8, len(tr.leaves))
	for _, n := range tr.leaves {
		m := n.sol.FSMask()
		for i := range m {
			m[i] = 0
		}
		n.sol.G.ForEachInterior(func(idx, _, _, _ int) {
			if rng.Intn(8) == 0 {
				m[idx] = 1
			}
		})
	}
	for li, n := range tr.leaves {
		g := n.sol.G
		wantW[li] = g.W.Clone()
		wantM[li] = append([]uint8(nil), n.sol.FSMask()...)
		tr.forExternalGhosts(g, func(i, j int) {
			idx := g.Idx(i, j, g.KBeg())
			wantW[li].SetPrim(idx, tr.sampleAvg(g.X(i), g.Y(j), g.Dx, g.Dy))
			wantM[li][idx] = tr.sampleMask(g.X(i), g.Y(j), g.Dx, g.Dy)
			for _, f := range [2]float64{-0.25, 0.25} {
				src, _ := tr.locate(g.X(i)+f*g.Dx, g.Y(j)+f*g.Dy)
				switch {
				case src.level < n.level:
					coarseToFine++
				case src.level > n.level:
					fineToCoarse++
				}
			}
		})
	}
	for _, n := range tr.leaves {
		g, m := n.sol.G, n.sol.FSMask()
		tr.forExternalGhosts(g, func(i, j int) {
			idx := g.Idx(i, j, g.KBeg())
			g.W.SetPrim(idx, state.Prim{Rho: -7, Vx: -7, Vy: -7, Vz: -7, P: -7})
			m[idx] = 0xff
		})
	}
	tr.fillGhosts()
	tr.FillMaskGhostsOf(tr.all)
	for li, n := range tr.leaves {
		got, want := n.sol.G.W.Raw(), wantW[li].Raw()
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: leaf %d L%d (%d,%d) W word %d: replay %v, sampling %v",
					what, li, n.level, n.bi, n.bj, k, got[k], want[k])
			}
		}
		m := n.sol.FSMask()
		if !bytes.Equal(m, wantM[li]) {
			t.Fatalf("%s: leaf %d L%d (%d,%d): mask replay differs from sampling", what, li, n.level, n.bi, n.bj)
		}
		for i := range m {
			m[i] = 0
		}
	}
	return coarseToFine, fineToCoarse
}

// regridForcing regrids tr with every indicator parked between the two
// tolerances except on the leaves pick selects, which read hot (refine)
// or quiet (coarsen).
func regridForcing(tr *Tree, hot bool, pick func(n *node) bool) bool {
	v := 0.0
	if hot {
		v = 2 * tr.cfg.RefineTol
	}
	return tr.regridWith(func(n *node) float64 {
		if pick(n) {
			return v
		}
		return 0.5 * (tr.cfg.RefineTol + tr.cfg.CoarsenTol)
	})
}

// TestGhostPlanMatchesSampling pins the plan-driven ghost fill — primitives
// and troubled-cell masks — to the point sampling it replaced, on 1-D and
// 2-D hierarchies, outflow and periodic (the wrap path), with coarse→fine
// and fine→coarse faces, along a run that regrids, after a forced refining
// and a forced coarsening regrid, and on trees rebuilt by Load and
// TreeFromLeafBlobs.
func TestGhostPlanMatchesSampling(t *testing.T) {
	cases := []struct {
		name string
		prob *testprob.Problem
		nbx  int
		mut  func(*Config)
	}{
		{"sod-1d", testprob.Sod, 8, func(c *Config) { c.MaxLevel = 2 }},
		{"smooth-wave-1d-periodic", testprob.SmoothWave, 8, func(c *Config) {
			c.MaxLevel, c.RefineTol, c.CoarsenTol = 2, 0.006, 0.001
		}},
		{"blast-2d", testprob.Blast2D, 4, func(c *Config) { c.BlockN, c.MaxLevel = 8, 2 }},
		{"kh-2d-periodic", testprob.KelvinHelmholtz2D, 4, func(c *Config) { c.BlockN, c.MaxLevel = 8, 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(16))
			cfg := DefaultConfig(core.DefaultConfig())
			cfg.RegridEvery = 2
			tc.mut(&cfg)
			tr, err := NewTree(tc.prob, tc.nbx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c2f, f2c := checkGhostFill(t, tr, "bootstrap", rng)
			if c2f == 0 || f2c == 0 {
				t.Fatalf("hierarchy has %d coarse→fine and %d fine→coarse ghost sources; the case needs both", c2f, f2c)
			}
			for i := 0; i < 6; i++ {
				if err := tr.Step(tr.MaxDt()); err != nil {
					t.Fatal(err)
				}
				checkGhostFill(t, tr, "stepped", rng)
			}

			// Refine one coarsest leaf, then merge the children back: every
			// surviving neighbour's sources move to other leaves and cells
			// both times, and every leaf index behind them shifts.
			var target *node
			for _, n := range tr.leaves {
				if n.level < cfg.MaxLevel && (target == nil || n.level < target.level) {
					target = n
				}
			}
			before := tr.NumLeaves()
			if !regridForcing(tr, true, func(n *node) bool { return n == target }) || tr.NumLeaves() <= before {
				t.Fatalf("forced refinement of L%d (%d,%d) did not grow the hierarchy", target.level, target.bi, target.bj)
			}
			tr.sync()
			checkGhostFill(t, tr, "after refining regrid", rng)
			before = tr.NumLeaves()
			if !regridForcing(tr, false, func(n *node) bool { return n.parent == target }) || tr.NumLeaves() >= before {
				t.Fatalf("forced coarsening into L%d (%d,%d) did not shrink the hierarchy", target.level, target.bi, target.bj)
			}
			tr.sync()
			checkGhostFill(t, tr, "after coarsening regrid", rng)

			// Rebuilt trees start with no plan: Save/Load re-recovers and
			// fills, SaveExact/Load and TreeFromLeafBlobs install W verbatim
			// and fill first on the next sync.
			for _, exact := range []bool{false, true} {
				var buf bytes.Buffer
				if err := tr.save(&buf, exact); err != nil {
					t.Fatal(err)
				}
				re, err := Load(&buf, cfg.Core)
				if err != nil {
					t.Fatal(err)
				}
				checkGhostFill(t, re, "after Save/Load", rng)
				if fa, fb := tr.Fingerprint(), re.Fingerprint(); exact && fa != fb {
					t.Fatalf("SaveExact/Load fingerprint %016x, source %016x", fb, fa)
				}
			}
			blob := tr.AppendLeafRecords(nil, tr.all)
			re, err := TreeFromLeafBlobs(tc.prob, tc.nbx, cfg, [][]float64{blob}, tr.Time(), tr.Steps(), tr.ZoneUpdates())
			if err != nil {
				t.Fatal(err)
			}
			checkGhostFill(t, re, "after TreeFromLeafBlobs", rng)
			if fa, fb := tr.Fingerprint(), re.Fingerprint(); fa != fb {
				t.Fatalf("TreeFromLeafBlobs fingerprint %016x, source %016x", fb, fa)
			}
		})
	}
}

// TestGhostPlanInvalidation pins the plan lifetime: a regrid that changes
// nothing keeps every plan (and its storage), a regrid that refines or
// coarsens anything leaves no plan reachable — the surviving leaves'
// included, whose sources and leaf indices both moved.
func TestGhostPlanInvalidation(t *testing.T) {
	cfg := DefaultConfig(core.DefaultConfig())
	cfg.BlockN, cfg.MaxLevel = 8, 2
	tr, err := NewTree(testprob.Blast2D, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	built := func() int {
		n := 0
		for i := range tr.plans {
			if tr.plans[i].built {
				n++
			}
		}
		return n
	}
	if len(tr.plans) != tr.NumLeaves() || built() != tr.NumLeaves() {
		t.Fatalf("%d of %d plans built after NewTree's sync, %d leaves", built(), len(tr.plans), tr.NumLeaves())
	}

	first := &tr.plans[0].src[0]
	if regridForcing(tr, true, func(*node) bool { return false }) {
		t.Fatal("regrid with every indicator between the tolerances changed the hierarchy")
	}
	if built() != tr.NumLeaves() || first != &tr.plans[0].src[0] {
		t.Fatalf("no-op regrid dropped plans: %d of %d built", built(), tr.NumLeaves())
	}

	var target *node
	for _, n := range tr.leaves {
		if n.level == 0 {
			target = n
			break
		}
	}
	if !regridForcing(tr, true, func(n *node) bool { return n == target }) {
		t.Fatal("forced refinement changed nothing")
	}
	if len(tr.plans) != tr.NumLeaves() || built() != 0 {
		t.Fatalf("refining regrid left %d of %d plans reachable, %d leaves", built(), len(tr.plans), tr.NumLeaves())
	}
	tr.sync()
	if !regridForcing(tr, false, func(n *node) bool { return n.parent == target }) {
		t.Fatal("forced coarsening changed nothing")
	}
	if len(tr.plans) != tr.NumLeaves() || built() != 0 {
		t.Fatalf("coarsening regrid left %d of %d plans reachable, %d leaves", built(), len(tr.plans), tr.NumLeaves())
	}
}
