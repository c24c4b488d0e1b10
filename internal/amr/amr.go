// Package amr implements block-structured adaptive mesh refinement on top
// of the core HRSC solver: a quadtree (binary tree in 1-D) of fixed-size
// blocks, gradient-based refinement flags, conservative prolongation and
// restriction, 2:1 level balance, and a stage-synchronous driver that
// advances every leaf with a single global time step, one sweep, update
// and ghost fill per stage of the configured SSP integrator.
//
// Design choices (see DESIGN.md §5):
//
//   - Leaves carry the data; internal nodes are structure only.
//   - A uniform global Δt (the minimum CFL step over all leaves) is used
//     instead of level subcycling — simpler, unconditionally consistent,
//     and adequate for the efficiency experiment E9.
//   - A leaf's grid comes from the problem's BlockGrid, the face rule
//     the uniform grid and cluster ranks share: domain faces carry the
//     problem's BC and SetupGrid (an inflow nozzle included), and faces
//     shared with another block are External.
//   - External ghost zones of a leaf are filled by conservative point
//     sampling of the neighbouring leaves: same-level neighbours copy
//     exactly, coarse neighbours prolongate piecewise-constantly, fine
//     neighbours are averaged (restriction). The sample points are
//     resolved to source cells once per hierarchy and replayed
//     (ghostplan.go). Coarse-fine interfaces are not refluxed; the
//     conservation drift this causes is measured by the tests and stays
//     far below the scheme's discretisation error.
package amr

import (
	"errors"
	"fmt"
	"math"

	"rhsc/internal/core"
	"rhsc/internal/grid"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// Config selects the AMR layout and policy.
type Config struct {
	// Core is the per-leaf numerical method (Pool may be set; TileExec
	// and HaloExchange must be nil — per-leaf executors go through Attach
	// and the tree owns ghost filling).
	Core core.Config
	// BlockN is the number of cells per block side. Must be at least
	// twice the reconstruction ghost width.
	BlockN int
	// MaxLevel is the deepest refinement level (0 = root only).
	MaxLevel int
	// RefineTol flags a block for refinement when its relative gradient
	// indicator exceeds it; CoarsenTol (< RefineTol) allows coarsening.
	RefineTol  float64
	CoarsenTol float64
	// RegridEvery re-evaluates the flags every so many steps (default 4).
	RegridEvery int
	// Attach, when non-nil, is called once for every leaf solver the tree
	// creates — at construction and again for each block born in a
	// regrid. A heterogeneous executor uses it to install its TileExec
	// on every leaf (hetero.Executor.Attach), so tile routing survives
	// refinement: new leaves come up already routed.
	Attach func(*core.Solver)
}

// DefaultConfig returns a reasonable AMR policy over the given core
// method.
func DefaultConfig(c core.Config) Config {
	return Config{
		Core:        c,
		BlockN:      16,
		MaxLevel:    2,
		RefineTol:   0.08,
		CoarsenTol:  0.02,
		RegridEvery: 4,
	}
}

type key struct{ level, bi, bj int }

// node is one tree block; only leaves (children == nil) hold solvers, and
// li is a leaf's index in Tree.leaves.
type node struct {
	level, bi, bj int
	parent        *node
	children      []*node
	li            int
	sol           *core.Solver
}

func (n *node) leaf() bool { return n.children == nil }

// Tree is the AMR hierarchy over a rectangular domain.
type Tree struct {
	cfg  Config
	prob *testprob.Problem
	dim  int
	nbx  int // root blocks along x
	nby  int // root blocks along y (1 in 1-D)

	x0, x1, y0, y1 float64

	roots  []*node
	nodes  map[key]*node
	leaves []*node
	// all is 0..len(leaves)-1, the leaf subset the whole-tree ghost fills
	// walk, and sols their solvers, the set Step hands to StepLeaves; both
	// are rebuilt with the leaf cache.
	all  []int
	sols []*core.Solver
	// plans[i] is the ghost plan of leaves[i] (ghostplan.go).
	plans []ghostPlan

	t           float64
	steps       int
	zoneUpdates int64

	// Cumulative fail-safe accounting (see failsafe.go).
	troubledCells int64
	repairedCells int64
}

// NewTree builds the hierarchy for problem p with nbx root blocks along x
// (root resolution nbx·BlockN cells), bootstraps the initial refinement,
// and fills the initial condition.
func NewTree(p *testprob.Problem, nbx int, cfg Config) (*Tree, error) {
	if cfg.BlockN < 2*cfg.Core.Recon.Ghost() {
		return nil, fmt.Errorf("amr: BlockN %d below twice the ghost width %d",
			cfg.BlockN, cfg.Core.Recon.Ghost())
	}
	if cfg.BlockN%2 != 0 {
		return nil, fmt.Errorf("amr: BlockN %d must be even for 2:1 cell alignment", cfg.BlockN)
	}
	if cfg.MaxLevel < 0 || cfg.MaxLevel > maxLevelLimit {
		return nil, fmt.Errorf("amr: MaxLevel %d out of range", cfg.MaxLevel)
	}
	if cfg.RefineTol <= cfg.CoarsenTol {
		return nil, errors.New("amr: RefineTol must exceed CoarsenTol")
	}
	if cfg.RegridEvery <= 0 {
		cfg.RegridEvery = 4
	}
	if cfg.Core.TileExec != nil || cfg.Core.HaloExchange != nil {
		return nil, errors.New("amr: core TileExec/HaloExchange must be nil (leaves schedule their own tiles; use Attach)")
	}
	if nbx < 1 {
		return nil, errors.New("amr: need at least one root block")
	}
	t, err := newSkeleton(p, cfg, nbx, rootLayout(p, nbx))
	if err != nil {
		return nil, err
	}
	t.rebuildLeaves()
	if err := t.initLeaves(t.leaves); err != nil {
		return nil, err
	}
	t.fillGhosts()
	// Bootstrap: regrid against the initial condition until the hierarchy
	// stabilises, re-imposing the exact initial data each round.
	for r := 0; r <= cfg.MaxLevel; r++ {
		if !t.regrid() {
			break
		}
		if err := t.initLeaves(t.leaves); err != nil {
			return nil, err
		}
		t.fillGhosts()
	}
	t.sync()
	return t, nil
}

// rootLayout returns the root-block row count matching the domain aspect
// ratio for nbx columns — the layout NewTree, and any rebuild claiming
// structural identity with it, must share.
func rootLayout(p *testprob.Problem, nbx int) int {
	if p.Dim < 2 {
		return 1
	}
	aspect := (p.Y1 - p.Y0) / (p.X1 - p.X0)
	nby := int(math.Round(float64(nbx) * aspect))
	if nby < 1 {
		nby = 1
	}
	return nby
}

// blockExtent returns the physical bounds of block (level, bi, bj).
func (t *Tree) blockExtent(level, bi, bj int) (x0, x1, y0, y1 float64) {
	wx := (t.x1 - t.x0) / float64(t.nbx<<level)
	x0 = t.x0 + float64(bi)*wx
	x1 = x0 + wx
	if t.dim >= 2 {
		wy := (t.y1 - t.y0) / float64(t.nby<<level)
		y0 = t.y0 + float64(bj)*wy
		y1 = y0 + wy
	} else {
		y0, y1 = t.y0, t.y1
	}
	return
}

// attachSolver allocates the grid and solver of a leaf, its faces by the
// problem's block rule; the solver's own stage buffers are the leaf's
// stage storage.
func (t *Tree) attachSolver(n *node) error {
	x0, x1, y0, y1 := t.blockExtent(n.level, n.bi, n.bj)
	geom := grid.Geometry{
		Nx: t.cfg.BlockN, Ny: 1, Nz: 1, Ng: t.cfg.Core.Recon.Ghost(),
		X0: x0, X1: x1, Y0: y0, Y1: y1,
	}
	if t.dim >= 2 {
		geom.Ny = t.cfg.BlockN
	}
	g := t.prob.BlockGrid(geom, [3]int{n.bi, n.bj}, [3]int{t.nbx << n.level, t.nby << n.level, 1})
	sol, err := core.New(g, t.cfg.Core)
	if err != nil {
		return err
	}
	n.sol = sol
	if t.cfg.Attach != nil {
		t.cfg.Attach(sol)
	}
	return nil
}

// initLeaves imposes the problem's initial condition on the given leaves.
func (t *Tree) initLeaves(ls []*node) error {
	for _, n := range ls {
		if err := n.sol.InitFromPrim(t.prob.Init); err != nil {
			return err
		}
	}
	return nil
}

// rebuildLeaves refreshes the leaf cache. The ghost plans index the leaf
// ordering, so they are dropped when it changed — and kept when it did
// not: regridWith calls this on every cascade pass, and a regrid that
// refined and coarsened nothing must not cost a plan rebuild per leaf.
func (t *Tree) rebuildLeaves() {
	old := t.leaves
	t.leaves = t.leaves[:0]
	same := true
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf() {
			// Position k is compared before the append overwrites it.
			if k := len(t.leaves); k >= len(old) || old[k] != n {
				same = false
			}
			n.li = len(t.leaves)
			t.leaves = append(t.leaves, n)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, r := range t.roots {
		walk(r)
	}
	if same && len(t.leaves) == len(old) {
		return
	}
	t.all, t.sols = t.all[:0], t.sols[:0]
	for i, n := range t.leaves {
		t.all = append(t.all, i)
		t.sols = append(t.sols, n.sol)
	}
	// Dropped plans keep their storage for whichever leaf lands on the
	// index next.
	for len(t.plans) < len(t.leaves) {
		t.plans = append(t.plans, ghostPlan{})
	}
	t.plans = t.plans[:len(t.leaves)]
	for i := range t.plans {
		p := &t.plans[i]
		p.built, p.dst, p.src = false, p.dst[:0], p.src[:0]
	}
}

// Time returns the solution time.
func (t *Tree) Time() float64 { return t.t }

// Problem returns the problem this tree was built for.
func (t *Tree) Problem() *testprob.Problem { return t.prob }

// NumLeaves returns the number of active blocks.
func (t *Tree) NumLeaves() int { return len(t.leaves) }

// TotalZones returns the number of active (leaf) interior zones.
func (t *Tree) TotalZones() int {
	z := 0
	for _, n := range t.leaves {
		z += n.sol.G.Nx * n.sol.G.Ny
	}
	return z
}

// ZoneUpdates returns the cumulative zones × RHS evaluations — the work
// measure of the AMR efficiency experiment.
func (t *Tree) ZoneUpdates() int64 { return t.zoneUpdates }

// MaxLevelInUse returns the deepest level currently active.
func (t *Tree) MaxLevelInUse() int {
	m := 0
	for _, n := range t.leaves {
		if n.level > m {
			m = n.level
		}
	}
	return m
}

// TotalMass sums the conserved mass over all leaves.
func (t *Tree) TotalMass() float64 {
	m := 0.0
	for _, n := range t.leaves {
		m += n.sol.G.TotalMass()
	}
	return m
}

// wrap maps a coordinate into the periodic domain.
func wrap(x, lo, hi float64) float64 {
	w := hi - lo
	for x < lo {
		x += w
	}
	for x >= hi {
		x -= w
	}
	return x
}

// locate returns the leaf containing physical point (x, y) and the flat
// cell index of the containing cell. It serves SampleAt and ghost plan
// construction; no per-step path descends the tree.
func (t *Tree) locate(x, y float64) (*node, int) {
	if t.prob.BC == grid.Periodic {
		x = wrap(x, t.x0, t.x1)
		if t.dim >= 2 {
			y = wrap(y, t.y0, t.y1)
		}
	}
	wx := (t.x1 - t.x0) / float64(t.nbx)
	bi := int((x - t.x0) / wx)
	if bi < 0 {
		bi = 0
	}
	if bi >= t.nbx {
		bi = t.nbx - 1
	}
	bj := 0
	if t.dim >= 2 {
		wy := (t.y1 - t.y0) / float64(t.nby)
		bj = int((y - t.y0) / wy)
		if bj < 0 {
			bj = 0
		}
		if bj >= t.nby {
			bj = t.nby - 1
		}
	}
	n := t.roots[bj*t.nbx+bi]
	for !n.leaf() {
		x0, x1, y0, y1 := t.blockExtent(n.level, n.bi, n.bj)
		cx := 0
		if x >= 0.5*(x0+x1) {
			cx = 1
		}
		if t.dim == 1 {
			n = n.children[cx]
			continue
		}
		cy := 0
		if y >= 0.5*(y0+y1) {
			cy = 1
		}
		n = n.children[cy*2+cx]
	}
	g := n.sol.G
	i := g.IBeg() + int((x-g.X0)/g.Dx)
	if i < g.IBeg() {
		i = g.IBeg()
	}
	if i >= g.IEnd() {
		i = g.IEnd() - 1
	}
	j := g.JBeg()
	if t.dim >= 2 {
		j = g.JBeg() + int((y-g.Y0)/g.Dy)
		if j < g.JBeg() {
			j = g.JBeg()
		}
		if j >= g.JEnd() {
			j = g.JEnd() - 1
		}
	}
	return n, g.Idx(i, j, g.KBeg())
}

// SampleAt returns the primitive state at a physical point, resolved on
// the finest covering leaf.
func (t *Tree) SampleAt(x, y float64) state.Prim {
	n, idx := t.locate(x, y)
	return n.sol.G.W.GetPrim(idx)
}

func avgPrim(a, b state.Prim) state.Prim {
	return state.Prim{
		Rho: 0.5 * (a.Rho + b.Rho),
		Vx:  0.5 * (a.Vx + b.Vx),
		Vy:  0.5 * (a.Vy + b.Vy),
		Vz:  0.5 * (a.Vz + b.Vz),
		P:   0.5 * (a.P + b.P),
	}
}

// sync re-establishes the invariant: every leaf's primitives (interior,
// physical ghosts, and External ghosts) reflect its conserved state, and
// each leaf's recovery folds the CFL reduction into the same pass
// (core.Solver.AccumulateCFLNext), so the next MaxDt over the tree is a
// cheap per-leaf combine.
func (t *Tree) sync() {
	t.ArmCFL(t.all)
	t.SyncSubset(t.all, t.all)
}

// MaxDt returns the global CFL step: the minimum over all leaves.
func (t *Tree) MaxDt() float64 {
	dt := math.Inf(1)
	for _, n := range t.leaves {
		if d := n.sol.MaxDt(); d < dt {
			dt = d
		}
	}
	return dt
}

// LeafSolvers returns the solvers of the leaves idx, in order: the set
// StepLeaves advances. A regrid replaces leaves and their solvers, so a
// driver rebuilds the set whenever its leaf list changes.
func (t *Tree) LeafSolvers(idx []int) []*core.Solver {
	sols := make([]*core.Solver, len(idx))
	for k, i := range idx {
		sols[k] = t.leaves[i].sol
	}
	return sols
}

// StepLeaves advances the leaves whose solvers are sols by dt and moves
// the solution clock: core.StepSolvers, the stage sequence of the uniform
// solver, with the tree's integrator — one sweep, one candidate update,
// and under core.Config.FailSafe one detect → Masks → repair, then one
// Halos call per SSP stage. Ghosts of the stepped leaves must be current
// on entry. A hook error aborts the step and leaves the stepped leaves
// mid-stage.
func (t *Tree) StepLeaves(sols []*core.Solver, dt float64, h core.StepHooks) error {
	tally, err := core.StepSolvers(&t.cfg.Core, sols, dt, h)
	t.zoneUpdates += tally.Swept
	t.troubledCells += tally.Troubled
	t.repairedCells += tally.Repaired
	if err != nil {
		return err
	}
	t.t += dt
	t.steps++
	return nil
}

// Step advances every leaf by dt, then regrids on the configured cadence.
// With every leaf stepped here, Masks is the fail-safe fraction demotion
// (core.Config.FailSafeDemotion) over the whole tree plus the mask ghost
// fill, and Halos is the whole-tree sync.
func (t *Tree) Step(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("amr: non-positive dt %v", dt)
	}
	err := t.StepLeaves(t.sols, dt, core.StepHooks{
		Masks: func(stage, troubled int) (bool, error) {
			if err := t.cfg.Core.FailSafeDemotion(stage, troubled, t.TotalZones()); err != nil || troubled == 0 {
				return false, err
			}
			t.FillMaskGhostsOf(t.all)
			return true, nil
		},
		Halos: func(_ int, recovered bool) error {
			if recovered {
				t.fillGhosts()
			} else {
				t.SyncSubset(t.all, t.all)
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	if t.steps%t.cfg.RegridEvery == 0 {
		t.regrid()
		t.sync()
	}
	return nil
}

// Advance integrates to tEnd with CFL-limited steps.
func (t *Tree) Advance(tEnd float64) (int, error) {
	steps := 0
	for t.t < tEnd-1e-14 {
		dt := t.MaxDt()
		if t.t+dt > tEnd {
			dt = tEnd - t.t
		}
		if err := t.Step(dt); err != nil {
			return steps, err
		}
		steps++
		if steps > 1_000_000 {
			return steps, errors.New("amr: step budget exhausted")
		}
	}
	return steps, nil
}
