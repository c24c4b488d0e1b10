package amr

import (
	"errors"

	"rhsc/internal/core"
)

// A posteriori fail-safe over the block tree (core.Config.FailSafe on
// the leaf method). Each stage runs the per-leaf detector after the
// candidate update; flagged cells are repaired in place with the
// first-order flux replacement (core.Solver.FSRepair) before the stage
// sync, so by the time ghosts are refilled every leaf holds an
// admissible state. Two tree-specific pieces live here:
//
//   - Mask ghosts. A troubled cell next to a block face dirties faces
//     of the neighbouring leaf too, and the repair on both leaves must
//     see the same flags so each recomputes the shared face flux. The
//     tree fills External-face mask ghosts by OR-ing neighbour
//     interiors over exactly the source cells the primitive ghost fill
//     averages (one ghost plan serves both, ghostplan.go), before any
//     leaf repairs. At same-level faces the stencils on either side
//     then hold bitwise-identical values, so the corrected flux matches
//     and conservation stays exact; coarse-fine faces inherit the
//     tree's existing no-refluxing policy (package comment).
//
//   - Stage coefficients. Both stages are detected, each as the
//     candidate a·u⁰ + b·(u + dt·L(u)) it actually wrote — (0, 1) for
//     the Euler stage, (½, ½) for the second stage fused with the SSP
//     combine — against the pre-stage neighbourhood, and repaired with
//     the same (a, b), exactly as core.Solver.Step validates its stages
//     on a uniform grid (core.fsStagePost). The leaf solver's own stage
//     buffers hold u⁰ and L(u) (core.Solver.StageBuffers), which is
//     where FSRepair reads them.
//
// A run in which the detector never fires is bitwise identical to the
// plain tree step: detection only reads the candidate state, and its
// primitive recovery is the stage's one recovery (the Halos hook is told
// not to repeat it).

// detectRepair is the fail-safe tail of one stage of StepLeaves, entered
// with the candidate update a·u⁰ + b·(u + dt·L(u)) applied to the leaves
// own: fault hook, detect, Masks hook, repair. Detection (and repair)
// recover every stepped leaf's primitives from the candidate state as
// they go, which is why the stage's Halos hook is told not to.
//
// Both owners of a face between a stepped leaf and a neighbour must see
// the same flags so each recomputes the same corrected flux; the Masks
// hook makes the neighbours' masks current (a no-op when they are stepped
// here too, an exchange when another rank steps them), and when every
// mask is clean the repair and its mask ghost fill are skipped. Only
// flagged cells count as repaired — cells that merely receive a corrected
// neighbour flux do not, the accounting core.Solver uses.
func (t *Tree) detectRepair(own []int, stage int, dt, a, b float64, masks func(stage, troubled int) (bool, error)) error {
	// Same injection point core.Step offers: after the candidate update,
	// before detection, once per leaf in deterministic leaf order.
	if hook := t.cfg.Core.FaultHook; hook != nil {
		for _, i := range own {
			hook(stage, t.leaves[i].sol.G.U)
		}
	}
	troubled := 0
	for _, i := range own {
		troubled += t.leaves[i].sol.FSDetect()
	}
	t.troubledCells += int64(troubled)
	repair, err := masks(stage, troubled)
	if err != nil || !repair {
		return err
	}
	t.fillMaskGhostsOf(own)
	for _, i := range own {
		n := t.leaves[i]
		if !maskAny(n.sol.FSMask()) {
			continue
		}
		if err := n.sol.FSRepair(stage, dt, a, b); err != nil {
			var se *core.StateError
			if errors.As(err, &se) {
				se.Troubled = troubled
			}
			return err
		}
	}
	t.repairedCells += int64(troubled)
	return nil
}

// TroubledCells returns the cumulative cells flagged by the fail-safe
// detector over this tree's stages.
func (t *Tree) TroubledCells() int64 { return t.troubledCells }

// RepairedCells returns the cumulative cells re-updated by the local
// flux-replacement repair.
func (t *Tree) RepairedCells() int64 { return t.repairedCells }

// maskAny reports whether any cell (interior or ghost) is flagged — a
// ghost flag alone still dirties local faces, so the leaf must repair.
func maskAny(m []uint8) bool {
	for _, v := range m {
		if v != 0 {
			return true
		}
	}
	return false
}

// LeafFSMask returns the troubled-cell mask of leaf i (full grid
// layout, allocated on first use) — the distributed driver's Masks hook
// packs owned masks from it and installs received neighbour masks into
// it.
func (t *Tree) LeafFSMask(i int) []uint8 { return t.leaves[i].sol.FSMask() }
