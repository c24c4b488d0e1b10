package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"rhsc"
	"rhsc/internal/durable"
	"rhsc/internal/metrics"
	"rhsc/internal/output"
	"rhsc/internal/serve"
)

// probes times the layers under the server one call at a time, on the
// payloads the burst mix itself produces: the batch job's grid and exact
// checkpoint (what a preemption parks and a drain spools) and the medium
// job's step (what the guard wraps).
func (w *serveWL) probes(r *result, dir string) error {
	defer os.RemoveAll(dir)
	reps := 15
	if w.quick {
		reps = 3
	}
	var pt probeTimer
	sec := pt.seconds

	bs := w.specs[clsBatch]
	sim, err := rhsc.NewSim(rhsc.Options{Problem: bs.Problem, N: bs.N})
	if err != nil {
		return err
	}
	if err := step(sim, bs.MaxSteps/2); err != nil {
		return err
	}

	// output: checkpoint and CSV of the batch job's grid.
	var ck bytes.Buffer
	r.set("output.ckpt_encode_ms", sec(reps, func() error {
		ck.Reset()
		return output.SaveCheckpointExact(&ck, sim.Grid, sim.Time())
	})*1e3)
	snap := ck.Bytes()
	r.set("output.ckpt_bytes", float64(len(snap)))
	r.set("output.ckpt_decode_ms", sec(reps, func() error {
		_, _, _, err := output.LoadCheckpointFull(bytes.NewReader(snap))
		return err
	})*1e3)
	r.set("output.csv_ms", sec(reps, func() error { return output.WriteSlabCSV(io.Discard, sim.Grid) })*1e3)

	// durable: that snapshot through the frame codec and the store.
	mb := float64(len(snap)) / 1e6
	var framed bytes.Buffer
	r.set("durable.frame_mb_s", mb/sec(reps, func() error {
		framed.Reset()
		fw := durable.NewWriter(&framed)
		if _, err := fw.Write(snap); err != nil {
			return err
		}
		return fw.Seal()
	}))
	r.set("durable.verify_mb_s", mb/sec(reps, func() error {
		fr, err := durable.NewReader(bytes.NewReader(framed.Bytes()))
		if err != nil {
			return err
		}
		if _, err := io.Copy(io.Discard, fr); err != nil {
			return err
		}
		return fr.Verify()
	}))
	var dc metrics.DurableCounters
	store, err := durable.Open(durable.OS, dir, &dc)
	if err != nil {
		return err
	}
	r.set("durable.commit_ms", sec(reps, func() error {
		_, err := store.Commit("probe", func(w io.Writer) error {
			_, err := w.Write(snap)
			return err
		})
		return err
	})*1e3)
	r.set("durable.load_ms", sec(reps, func() error {
		_, err := store.Load("probe", func(rd io.Reader) error {
			_, err := io.Copy(io.Discard, rd)
			return err
		})
		return err
	})*1e3)
	ds := dc.Snapshot()
	r.set("durable.fsyncs_per_commit", float64(ds.Fsyncs)/float64(ds.Commits))

	// resilience: the guarded step the server runs against the bare one.
	med := w.specs[clsMedium]
	mo := rhsc.Options{Problem: med.Problem, N: med.N}
	bare := sec(3, func() error {
		s, err := rhsc.NewSim(mo)
		if err != nil {
			return err
		}
		s.Solver.RecoverPrimitives() // as NewJobRunner does, so both start alike
		return step(s, med.MaxSteps)
	})
	guarded := sec(3, func() error {
		run, err := rhsc.NewJobRunner(mo, nil, 0)
		if err != nil {
			return err
		}
		for i := 0; i < med.MaxSteps; i++ {
			if _, err := run.StepOnce(); err != nil {
				return err
			}
		}
		return nil
	})
	r.setStat("resilience.guard_overhead", guarded/bare, 0, fmt.Sprintf("base Sim.Step %.1f us/step", bare/float64(med.MaxSteps)*1e6))

	// serve: admission alone, in process, on a server of its own.
	probe := serve.New(serve.Config{Workers: 1, MaxQueue: 4 * reps})
	defer probe.Close()
	r.set("serve.submit_us", sec(reps, func() error {
		st, err := probe.Submit(w.specs[clsTiny])
		if err == nil && st.State != serve.Queued {
			err = fmt.Errorf("probe job refused: %s", st.Reason)
		}
		return err
	})*1e6)
	return pt.err
}
