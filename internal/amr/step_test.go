package amr

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"rhsc/internal/core"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// TestStepLeavesHookContract drives StepLeaves with a recording hook set
// and pins the call contract the distributed driver is written against:
// Masks only under FailSafe, once per Euler stage, with the detector's
// count and before any repair; Halos after stage 1, after stage 2 and
// after the combine; the stepped leaves' primitives left untouched for
// the hook on plain stages and on the combine, already recovered — and
// flagged as such — on fail-safe stages. The hooks do what Tree.Step's
// do, so the stepped tree must also match a Tree.Step twin bit for bit.
func TestStepLeavesHookContract(t *testing.T) {
	cases := []struct {
		name     string
		failSafe bool
		poison   bool // NaN one cell per leaf on stage 1, so the repair runs
		want     []string
	}{
		{"plain", false, false, []string{
			"halos(1,false)", "halos(2,false)", "halos(0,false)"}},
		{"failsafe-clean", true, false, []string{
			"masks(1,0)", "halos(1,true)", "masks(2,0)", "halos(2,true)", "halos(0,false)"}},
		{"failsafe-troubled", true, true, []string{
			"masks(1,4)", "halos(1,true)", "masks(2,0)", "halos(2,true)", "halos(0,false)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cell int
			build := func() *Tree {
				cfg := DefaultConfig(core.DefaultConfig())
				cfg.MaxLevel = 0
				cfg.RegridEvery = 100 // keep the twin's Step off its regrid branch
				cfg.Core.FailSafe = tc.failSafe
				ng := cfg.Core.Recon.Ghost()
				cell = (ng+4)*(cfg.BlockN+2*ng) + ng + 4
				if tc.poison {
					cfg.Core.FaultHook = func(stage int, u *state.Fields) {
						if stage == 1 {
							u.Comp[state.ITau][cell] = math.NaN()
						}
					}
				}
				tr, err := NewTree(testprob.KelvinHelmholtz2D, 2, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			tr, twin := build(), build()
			all := allLeaves(tr)
			if len(all) != 4 {
				t.Fatalf("%d leaves, the troubled count assumes 4", len(all))
			}
			prims := func() []float64 {
				var w []float64
				for _, i := range all {
					w = append(w, tr.leaves[i].sol.G.W.Raw()...)
				}
				return w
			}

			var calls []string
			var repaired int64 // RepairedCells when the last stage ended
			w0 := prims()
			hooks := StepHooks{
				Masks: func(stage, troubled int) (bool, error) {
					calls = append(calls, fmt.Sprintf("masks(%d,%d)", stage, troubled))
					if tr.RepairedCells() != repaired {
						t.Errorf("stage %d: Masks ran after the stage's repair", stage)
					}
					if tau := tr.leaves[0].sol.G.U.Comp[state.ITau][cell]; tc.poison && stage == 1 && !math.IsNaN(tau) {
						t.Errorf("stage 1: poisoned cell already repaired (tau = %v) when Masks ran", tau)
					}
					return troubled > 0, nil
				},
				Halos: func(stage int, recovered bool) error {
					calls = append(calls, fmt.Sprintf("halos(%d,%v)", stage, recovered))
					// StepLeaves recovers the stepped leaves exactly when it
					// says so; otherwise their primitives are still the
					// ones the previous hook call left.
					if same := reflect.DeepEqual(prims(), w0); same == recovered {
						t.Errorf("halos(%d): recovered=%v but primitives unchanged=%v", stage, recovered, same)
					}
					if recovered {
						tr.SyncSubset(nil, all)
					} else {
						tr.SyncSubset(all, all)
					}
					w0, repaired = prims(), tr.RepairedCells()
					return nil
				},
			}
			dt := twin.MaxDt()
			if err := tr.StepLeaves(all, dt, hooks); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(calls, tc.want) {
				t.Errorf("hook calls\n got %v\nwant %v", calls, tc.want)
			}
			if tc.poison && (tr.TroubledCells() != 4 || tr.RepairedCells() != 4) {
				t.Errorf("troubled %d, repaired %d, want 4 and 4", tr.TroubledCells(), tr.RepairedCells())
			}
			if tr.Steps() != 1 || tr.Time() != dt {
				t.Errorf("clock at step %d, t=%v; want 1, %v", tr.Steps(), tr.Time(), dt)
			}
			if err := twin.Step(dt); err != nil {
				t.Fatal(err)
			}
			if a, b := tr.Fingerprint(), twin.Fingerprint(); a != b {
				t.Errorf("StepLeaves %016x differs from Tree.Step %016x", a, b)
			}
		})
	}
}

// TestStepZeroAllocs is the serial row of the zero-allocation family
// (core and damr hold the others): between regrids, with the solvers'
// scratch and every leaf's ghost plan warm, Tree.Step — stage advances,
// whole-tree recoveries, three plan-replayed ghost fills, and under
// FailSafe the per-stage detection — allocates nothing. A ghost fill that
// rebuilt a plan, or walked the tree through a closure, would show here.
func TestStepZeroAllocs(t *testing.T) {
	for _, fs := range []bool{false, true} {
		cfg := DefaultConfig(core.DefaultConfig())
		cfg.BlockN, cfg.MaxLevel, cfg.RegridEvery = 8, 2, 1<<30
		cfg.Core.FailSafe = fs
		tr, err := NewTree(testprob.Blast2D, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A fixed dt well inside the CFL bound of every measured step.
		dt := tr.MaxDt() / 2
		step := func() {
			if err := tr.Step(dt); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
			t.Errorf("failsafe=%v: steady-state serial step allocates %.1f times, want 0", fs, allocs)
		}
	}
}
