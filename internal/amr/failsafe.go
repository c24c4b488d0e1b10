package amr

// A posteriori fail-safe over the block tree (core.Config.FailSafe on
// the leaf method). Every stage of core.StepSolvers runs the per-leaf
// detector after the candidate update; flagged cells are repaired in
// place with the first-order flux replacement before the stage sync, so
// by the time ghosts are refilled every leaf holds an admissible state.
// Each stage is detected as the candidate a·u⁰ + b·(u + dt·L(u)) it
// actually wrote, against the pre-stage neighbourhood, and repaired with
// the same (a, b) — the integrator's row, exactly as on a uniform grid.
//
// What is the tree's own is the mask ghosts. A troubled cell next to a
// block face dirties faces of the neighbouring leaf too, and the repair
// on both leaves must see the same flags so each recomputes the shared
// face flux. The Masks hook fills External-face mask ghosts by OR-ing
// neighbour interiors over exactly the source cells the primitive ghost
// fill averages (one ghost plan serves both, ghostplan.go), before any
// leaf repairs. At same-level faces the stencils on either side then hold
// bitwise-identical values, so the corrected flux matches and
// conservation stays exact; coarse-fine faces inherit the tree's existing
// no-refluxing policy (package comment). Only flagged cells count as
// repaired — cells that merely receive a corrected neighbour flux do not,
// the accounting core.Solver uses.
//
// A run in which the detector never fires is bitwise identical to the
// plain tree step: detection only reads the candidate state, and its
// primitive recovery is the stage's one recovery (the Halos hook is told
// not to repeat it).

// TroubledCells returns the cumulative cells flagged by the fail-safe
// detector over this tree's stages.
func (t *Tree) TroubledCells() int64 { return t.troubledCells }

// RepairedCells returns the cumulative cells re-updated by the local
// flux-replacement repair.
func (t *Tree) RepairedCells() int64 { return t.repairedCells }

// LeafFSMask returns the troubled-cell mask of leaf i (full grid
// layout, allocated on first use) — the distributed driver's Masks hook
// packs owned masks from it and installs received neighbour masks into
// it.
func (t *Tree) LeafFSMask(i int) []uint8 { return t.leaves[i].sol.FSMask() }
