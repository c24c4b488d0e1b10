package resilience

import (
	"errors"
	"io"
	"math"
	"testing"

	"rhsc/internal/core"
	"rhsc/internal/durable"
	"rhsc/internal/output"
	"rhsc/internal/testprob"
)

// stepTo advances s one CFL step at a time to tEnd, invoking tick with
// the committed step count after each step.
func stepTo(t *testing.T, s *core.Solver, tEnd float64, tick func(step int) error) int {
	t.Helper()
	step := 0
	for s.Time() < tEnd-1e-14 {
		dt := s.MaxDt()
		if s.Time()+dt > tEnd {
			dt = tEnd - s.Time()
		}
		if err := s.Step(dt); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		step++
		if tick != nil {
			if err := tick(step); err != nil {
				t.Fatalf("tick at step %d: %v", step, err)
			}
		}
	}
	return step
}

// uraw copies the solver's conserved field.
func uraw(s *core.Solver) []float64 {
	return append([]float64(nil), s.G.U.Raw()...)
}

// TestDurableCheckpointerTicksOnInterval pins the commit cadence and
// the generation numbering the recovery path depends on.
func TestDurableCheckpointerTicksOnInterval(t *testing.T) {
	dir := t.TempDir()
	st, err := durable.Open(durable.OS, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := sodSolver(t)
	d := &DurableCheckpointer{Store: st, Name: "sod", Every: 5}
	steps := stepTo(t, s, testprob.Sod.TEnd, func(step int) error {
		_, err := d.Tick(step, func(w io.Writer) error {
			return output.SaveCheckpointExact(w, s.G, s.Time())
		})
		return err
	})
	// Generations number the commits from 1, so the newest is the count.
	gen, err := st.Load("sod", func(io.Reader) error { return nil })
	if want := uint64(steps / 5); err != nil || gen != want {
		t.Fatalf("newest generation %d (err %v) after %d steps, want %d commits", gen, err, steps, want)
	}
}

// smallSod is a quarter-size solver so the exhaustive crash matrix
// stays fast; bit-exactness does not depend on resolution.
func smallSod(t *testing.T) *core.Solver {
	t.Helper()
	cfg := core.DefaultConfig()
	p := testprob.Sod
	g := p.NewGrid(48, cfg.Recon.Ghost())
	s, err := core.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitFromPrim(p.Init); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDurableCrashMatrixBitExactResume is the end-to-end acceptance
// criterion: a guarded run checkpointing through the durable store is
// killed at EVERY mutating I/O write point in turn; each time, recovery
// must land on the newest fully-valid generation and the resumed run
// must finish bit-identically to the uninterrupted one.
func TestDurableCrashMatrixBitExactResume(t *testing.T) {
	tEnd := testprob.Sod.TEnd / 2 // enough steps for several checkpoints

	// Reference: uninterrupted run.
	ref := smallSod(t)
	stepTo(t, ref, tEnd, nil)
	want := uraw(ref)

	// crashRun runs the checkpointing loop on fsys until tEnd or the
	// injected crash, whichever first.
	crashRun := func(fsys durable.FS, dir string) error {
		st, err := durable.Open(fsys, dir, nil)
		if err != nil {
			return err
		}
		s := smallSod(t)
		d := &DurableCheckpointer{Store: st, Name: "sod", Every: 3}
		step := 0
		for s.Time() < tEnd-1e-14 {
			dt := s.MaxDt()
			if s.Time()+dt > tEnd {
				dt = tEnd - s.Time()
			}
			if err := s.Step(dt); err != nil {
				return err
			}
			step++
			if _, err := d.Tick(step, func(w io.Writer) error {
				return output.SaveCheckpointExact(w, s.G, s.Time())
			}); err != nil {
				return err
			}
		}
		return nil
	}

	probe := durable.NewFaultFS(durable.OS, durable.Plan{})
	if err := crashRun(probe, t.TempDir()); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	total := probe.Ops()
	if total < 20 {
		t.Fatalf("run issued only %d mutating ops", total)
	}

	var lastGen uint64
	for op := 1; op <= total; op++ {
		dir := t.TempDir()
		ffs := durable.NewFaultFS(durable.OS, durable.Plan{CrashAtOp: op, TornBytes: 5})
		err := crashRun(ffs, dir)
		if ffs.Ops() < op {
			t.Fatalf("op %d: crash never fired (err %v)", op, err)
		}

		// Reboot on a clean filesystem: recover, resume, compare.
		var s2 *core.Solver
		gen, err := RecoverLatest(durable.OS, dir, "sod", func(r io.Reader) error {
			g, tt, prims, err := output.LoadCheckpointFull(r)
			if err != nil {
				return err
			}
			if !prims {
				return errors.New("exact checkpoint lost its primitives")
			}
			cfg := core.DefaultConfig()
			sol, err := core.New(g, cfg)
			if err != nil {
				return err
			}
			sol.SetTime(tt)
			s2 = sol
			return nil
		})
		if errors.Is(err, durable.ErrNotExist) {
			// Crash before the first commit completed: restart from scratch.
			if op > total/2 {
				t.Fatalf("op %d of %d: late crash lost every checkpoint", op, total)
			}
			s2 = smallSod(t)
			gen = 0
		} else if err != nil {
			t.Fatalf("op %d: recovery: %v", op, err)
		}
		// Durability is monotone in the crash point: a later crash can
		// never recover an older generation than an earlier crash did.
		if gen < lastGen {
			t.Fatalf("op %d: recovered g%d after op %d recovered g%d", op, gen, op-1, lastGen)
		}
		lastGen = gen

		stepTo(t, s2, tEnd, nil)
		got := uraw(s2)
		for i := range want {
			if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("op %d (recovered g%d): resumed U[%d] = %v, want %v — not bit-exact",
					op, gen, i, got[i], want[i])
			}
		}
	}
}
