package amr

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"rhsc/internal/core"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// allLeaves returns the index set covering every leaf.
func allLeaves(tr *Tree) []int {
	idx := make([]int, tr.NumLeaves())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// TestFailSafeTreeZeroTroubledBitwise: with no troubled cells the
// fail-safe tree must be bitwise identical to the plain tree — the
// detector only reads, and the stage sync re-enters c2p at converged
// pressures.
func TestFailSafeTreeZeroTroubledBitwise(t *testing.T) {
	build := func(fs bool) *Tree {
		cfg := DefaultConfig(core.DefaultConfig())
		cfg.MaxLevel = 1
		cfg.Core.FailSafe = fs
		tr, err := NewTree(testprob.KelvinHelmholtz2D, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	plain, safe := build(false), build(true)
	for s := 0; s < 6; s++ {
		dtP, dtS := plain.MaxDt(), safe.MaxDt()
		if dtP != dtS {
			t.Fatalf("step %d: dt diverged: %v vs %v", s, dtP, dtS)
		}
		if err := plain.Step(dtP); err != nil {
			t.Fatal(err)
		}
		if err := safe.Step(dtS); err != nil {
			t.Fatal(err)
		}
	}
	if safe.TroubledCells() != 0 || safe.RepairedCells() != 0 {
		t.Fatalf("clean run flagged cells: troubled=%d repaired=%d",
			safe.TroubledCells(), safe.RepairedCells())
	}
	bp, err := plain.EncodeLeaves(allLeaves(plain))
	if err != nil {
		t.Fatal(err)
	}
	bs, err := safe.EncodeLeaves(allLeaves(safe))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bp, bs) {
		t.Fatal("fail-safe tree diverged bitwise from the plain tree on a clean run")
	}
}

// khFSTree builds a uniform (MaxLevel 0) fail-safe tree on the doubly
// periodic KH problem — block faces everywhere, exact conservation.
func khFSTree(t *testing.T, mut func(*Config)) *Tree {
	t.Helper()
	cfg := DefaultConfig(core.DefaultConfig())
	cfg.MaxLevel = 0
	cfg.Core.FailSafe = true
	if mut != nil {
		mut(&cfg)
	}
	tr, err := NewTree(testprob.KelvinHelmholtz2D, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestFaultFailSafeTreeRepairConserves poisons a cell adjacent to a
// block face mid-stage: the repair must complete, the neighbour leaf
// must apply the matching corrected flux through its mask ghosts, and
// the totals must hold to round-off.
func TestFaultFailSafeTreeRepairConserves(t *testing.T) {
	var stage1Calls int
	tr := khFSTree(t, func(cfg *Config) {
		ng := cfg.Core.Recon.Ghost()
		totalX := cfg.BlockN + 2*ng
		// Last interior column, mid-height: the repaired faces straddle the
		// x-face shared with the next block (and, periodically, column 0).
		idx := (ng+cfg.BlockN/2)*totalX + (ng + cfg.BlockN - 1)
		cfg.Core.FaultHook = func(stage int, u *state.Fields) {
			if stage != 1 {
				return
			}
			stage1Calls++
			// 4 leaves per stage: call 9 is the first leaf of step 3.
			if stage1Calls == 9 {
				u.Comp[state.ITau][idx] = math.NaN()
			}
		}
	})
	mass0, en0 := tr.TotalMass(), tr.TotalEnergy()
	for s := 0; s < 8; s++ {
		if err := tr.Step(tr.MaxDt()); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
	}
	if tr.TroubledCells() == 0 {
		t.Fatal("injected fault never flagged")
	}
	if tr.RepairedCells() != tr.TroubledCells() {
		t.Fatalf("repaired %d of %d troubled cells", tr.RepairedCells(), tr.TroubledCells())
	}
	if dm := math.Abs(tr.TotalMass()-mass0) / mass0; dm > 1e-12 {
		t.Fatalf("mass drift %.3e after local repair", dm)
	}
	if de := math.Abs(tr.TotalEnergy()-en0) / en0; de > 1e-12 {
		t.Fatalf("energy drift %.3e after local repair", de)
	}
	if p := tr.SampleAt(0.49, 0.0); !(p.Rho > 0 && p.P > 0) {
		t.Fatalf("unphysical repaired state: %+v", p)
	}
}

// TestFailSafeTreeMaxFracDemotes: a troubled fraction above the
// configured bound must surface as a *core.StateError from Step, not a
// local repair.
func TestFailSafeTreeMaxFracDemotes(t *testing.T) {
	tr := khFSTree(t, func(cfg *Config) {
		cfg.Core.FailSafeMaxFrac = 0.5 / float64(32*32)
		ng := cfg.Core.Recon.Ghost()
		totalX := cfg.BlockN + 2*ng
		idx := (ng+4)*totalX + ng + 4
		cfg.Core.FaultHook = func(stage int, u *state.Fields) {
			if stage == 1 {
				// Every leaf, every step: far more than half a cell's worth.
				u.Comp[state.ITau][idx] = math.NaN()
			}
		}
	})
	err := tr.Step(tr.MaxDt())
	var se *core.StateError
	if !errors.As(err, &se) {
		t.Fatalf("expected StateError demotion, got %v", err)
	}
	if se.Troubled < 2 || se.RepairFailed {
		t.Fatalf("unexpected demotion shape: %+v", se)
	}
	if tr.RepairedCells() != 0 {
		t.Fatalf("demoted stage repaired cells: %d", tr.RepairedCells())
	}
}

// TotalEnergy sums the conserved energy over all leaves.
func (t *Tree) TotalEnergy() float64 {
	e := 0.0
	for _, n := range t.leaves {
		e += n.sol.G.TotalEnergy()
	}
	return e
}
