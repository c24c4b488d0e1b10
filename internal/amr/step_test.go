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
// Masks only under FailSafe, once per stage, with the detector's count and
// before any repair; Halos once at the end of every stage of the
// integrator and never again — the SSP combine is fused into each later
// stage, so an RK2 step is two syncs and an RK3 step three; the stepped
// leaves' primitives left untouched for the hook on plain stages, already
// recovered — and flagged as such — on fail-safe stages. The hooks do
// what Tree.Step's do, so the stepped tree must also match a Tree.Step
// twin bit for bit.
func TestStepLeavesHookContract(t *testing.T) {
	cases := []struct {
		name     string
		rk       core.Integrator
		failSafe bool
		poison   int // stage on which one cell per leaf is NaN'd so the repair runs; 0 = never
		want     []string
	}{
		{"plain", core.RK2, false, 0, []string{
			"halos(1,false)", "halos(2,false)"}},
		{"failsafe-clean", core.RK2, true, 0, []string{
			"masks(1,0)", "halos(1,true)", "masks(2,0)", "halos(2,true)"}},
		{"failsafe-troubled", core.RK2, true, 1, []string{
			"masks(1,4)", "halos(1,true)", "masks(2,0)", "halos(2,true)"}},
		{"failsafe-troubled-fused", core.RK2, true, 2, []string{
			"masks(1,0)", "halos(1,true)", "masks(2,4)", "halos(2,true)"}},
		{"plain-rk1", core.RK1, false, 0, []string{"halos(1,false)"}},
		{"plain-rk3", core.RK3, false, 0, []string{
			"halos(1,false)", "halos(2,false)", "halos(3,false)"}},
		{"failsafe-troubled-rk3", core.RK3, true, 3, []string{
			"masks(1,0)", "halos(1,true)", "masks(2,0)", "halos(2,true)", "masks(3,4)", "halos(3,true)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cell int
			build := func() *Tree {
				cfg := DefaultConfig(core.DefaultConfig())
				cfg.MaxLevel = 0
				cfg.RegridEvery = 100 // keep the twin's Step off its regrid branch
				cfg.Core.Integrator = tc.rk
				cfg.Core.FailSafe = tc.failSafe
				ng := cfg.Core.Recon.Ghost()
				cell = (ng+4)*(cfg.BlockN+2*ng) + ng + 4
				if tc.poison > 0 {
					cfg.Core.FaultHook = func(stage int, u *state.Fields) {
						if stage == tc.poison {
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
			hooks := core.StepHooks{
				Masks: func(stage, troubled int) (bool, error) {
					calls = append(calls, fmt.Sprintf("masks(%d,%d)", stage, troubled))
					if tr.RepairedCells() != repaired {
						t.Errorf("stage %d: Masks ran after the stage's repair", stage)
					}
					if tau := tr.leaves[0].sol.G.U.Comp[state.ITau][cell]; stage == tc.poison && !math.IsNaN(tau) {
						t.Errorf("stage %d: poisoned cell already repaired (tau = %v) when Masks ran", stage, tau)
					}
					if troubled == 0 {
						return false, nil
					}
					tr.FillMaskGhostsOf(all)
					return true, nil
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
			if err := tr.StepLeaves(tr.LeafSolvers(all), dt, hooks); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(calls, tc.want) {
				t.Errorf("hook calls\n got %v\nwant %v", calls, tc.want)
			}
			if tc.poison > 0 && (tr.TroubledCells() != 4 || tr.RepairedCells() != 4) {
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

// TestSingleLeafMatchesCoreStep is the tree's uniform-grid oracle: with
// one root block and no refinement there is no neighbour to sync with, so
// StepLeaves must be core.Solver.Step operation for operation — MaxDt and
// every entry of U bit-equal over ten steps, under each integrator, plain,
// under FailSafe with the detector left to itself, and with the last
// stage poisoned so the repair has to rebuild that row's (a, b) candidate
// from the solver's own u⁰ and RHS. RK1 and RK3 rows carry the integrator
// as a name suffix; RK2, the default, carries none.
func TestSingleLeafMatchesCoreStep(t *testing.T) {
	modes := []struct {
		name     string
		failSafe bool
		poison   bool
	}{{"plain", false, false}, {"failsafe", true, false}, {"failsafe-repair", true, true}}
	for _, rk := range []core.Integrator{core.RK1, core.RK2, core.RK3} {
		for _, p := range []*testprob.Problem{testprob.Sod, testprob.Blast2D} {
			for _, m := range modes {
				name := p.Name + "/" + m.name
				if rk != core.RK2 {
					name += "-" + rk.String()
				}
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig(core.DefaultConfig())
					cfg.BlockN, cfg.MaxLevel = 32, 0
					cfg.Core.Integrator = rk
					cfg.Core.FailSafe = m.failSafe
					ng := cfg.Core.Recon.Ghost()
					g := p.NewGrid(cfg.BlockN, ng)
					if m.poison {
						cell := g.Idx(g.IBeg()+5, g.JBeg()+(g.Ny-1)/2, g.KBeg())
						cfg.Core.FaultHook = func(stage int, u *state.Fields) {
							if stage == rk.Stages() {
								u.Comp[state.ITau][cell] = math.NaN()
							}
						}
					}
					tr, err := NewTree(p, 1, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if tr.NumLeaves() != 1 {
						t.Fatalf("%d leaves, want the single root block", tr.NumLeaves())
					}
					sol, err := core.New(g, cfg.Core)
					if err != nil {
						t.Fatal(err)
					}
					if err := sol.InitFromPrim(p.Init); err != nil {
						t.Fatal(err)
					}
					// NewTree ends on a sync; core.Solver.Advance opens with the
					// same recovery.
					sol.RecoverPrimitives()
					for step := 0; step < 10; step++ {
						dt, want := tr.MaxDt(), sol.MaxDt()
						if dt != want {
							t.Fatalf("step %d: tree dt %v, core dt %v", step, dt, want)
						}
						if err := tr.Step(dt); err != nil {
							t.Fatal(err)
						}
						if err := sol.Step(dt); err != nil {
							t.Fatal(err)
						}
						got, ref := tr.LeafRawU(0), sol.G.U.Raw()
						diff := 0
						for i := range ref {
							if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
								diff++
							}
						}
						if diff != 0 || len(got) != len(ref) {
							t.Fatalf("step %d: %d of %d U entries differ from core.Solver.Step", step, diff, len(ref))
						}
					}
					// Blast2D's shell trips the DMP detector on its own at this
					// resolution; whatever fires must fire alike on both sides.
					if a, b := tr.TroubledCells(), sol.St.Troubled.Load(); a != b {
						t.Errorf("tree flagged %d cells, core.Solver %d", a, b)
					}
					if a, b := tr.RepairedCells(), sol.St.Repaired.Load(); a != b || m.poison && a < 10 {
						t.Errorf("tree repaired %d cells, core.Solver %d (poisoned: at least 10)", a, b)
					}
				})
			}
		}
	}
}

// TestStepZeroAllocs is the serial row of the zero-allocation family
// (core and damr hold the others): between regrids, with the solvers'
// scratch and every leaf's ghost plan warm, Tree.Step — stage advances,
// whole-tree recoveries, one plan-replayed ghost fill per stage (RK2 and
// RK3), and under FailSafe the per-stage detection — allocates nothing. A
// ghost fill that rebuilt a plan, or walked the tree through a closure,
// would show here.
func TestStepZeroAllocs(t *testing.T) {
	for _, c := range []struct {
		rk core.Integrator
		fs bool
	}{{core.RK2, false}, {core.RK2, true}, {core.RK3, false}, {core.RK3, true}} {
		rk, fs := c.rk, c.fs
		cfg := DefaultConfig(core.DefaultConfig())
		cfg.BlockN, cfg.MaxLevel, cfg.RegridEvery = 8, 2, 1<<30
		cfg.Core.Integrator = rk
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
			t.Errorf("%v failsafe=%v: steady-state serial step allocates %.1f times, want 0", rk, fs, allocs)
		}
	}
}
