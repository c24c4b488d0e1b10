package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// processStart anchors the first set-up of a pass at process start.
var processStart = time.Now()

// runConfig is what one run of one workload is told.
type runConfig struct {
	Workload     string
	Seed         int64
	Seconds      float64
	Trace        bool
	Quick        bool
	OutDir       string // trace files and spool scratch
	UpdateGolden bool
}

// setups is how often a run sets up: setup_s is their median, so one slow
// start-up does not set the figure.
const setups = 3

// roundOut is what one round of bit-identical work reports.
type roundOut struct {
	wall        time.Duration
	steps       int
	zoneUpdates int64
	fp          uint64
	virtual     float64  // modelled seconds, 0 where there is no virtual clock
	c2p         [4]int64 // calls, Newton iterations, bisections, failures
}

// solverWorkload is a workload made of repeatable rounds: the three
// uniform-grid blasts and the distributed AMR run.
type solverWorkload interface {
	// setup builds everything a round needs; it is called several times
	// and each call replaces the previous state.
	setup() error
	// release drops what the previous round left for finish and probes.
	release()
	// round runs the fixed work once. parent is the round's span.
	round(tr *tracer, parent, idx int) (roundOut, error)
	// finish verifies the final state and sets the workload's own
	// end-to-end metrics.
	finish(r *result, rounds []roundOut, updateGolden bool) error
	// probes sets the per-layer metrics (traced pass only). perStep is the
	// p25 untraced wall time of one step.
	probes(r *result, tr *tracer, rounds []roundOut, perStep float64) error
}

// runSolver drives a solverWorkload through set-up, rounds and checks.
//
// Tracing off: every round is plain. Tracing on: plain and traced rounds
// alternate (the seed picks which goes first) so both see the same host
// conditions, and their p25 times give the tracing overhead; the probes
// then take what is left of the budget.
func runSolver(w solverWorkload, cfg runConfig, r *result) (*tracer, error) {
	if err := medianSetup(r, func() { collect(w) }, w.setup); err != nil {
		return nil, err
	}

	var tr *tracer
	minRounds, budget := 5, cfg.Seconds
	if cfg.Trace {
		tr = newTracer(cfg.Workload)
		minRounds, budget = 4, 0.55*cfg.Seconds
	}
	if cfg.Quick {
		minRounds, budget = 3, 0
		if cfg.Trace {
			minRounds = 4
		}
	}

	var plain, traced, all []roundOut
	stolen := startStealMeter()
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for n := 0; n < minRounds || time.Now().Before(deadline); n++ {
		rt := tr.onTurn(n, cfg.Seed)
		collect(w)
		sp := rt.begin(0, "round", n)
		out, err := w.round(rt, sp, n)
		rt.end(sp)
		if err != nil {
			return tr, fmt.Errorf("round %d: %w", n, err)
		}
		all = append(all, out)
		if rt != nil {
			traced = append(traced, out)
		} else {
			plain = append(plain, out)
		}
	}

	steps := 0
	for _, o := range all {
		steps += o.steps
		r.verify(o.fp == all[0].fp, "round fingerprint %016x differs from first round %016x", o.fp, all[0].fp)
	}
	r.attempt(steps, 0)

	st := statOfRounds(wallSeconds(plain))
	note := fmt.Sprintf("p25 of %d rounds", st.N) + stolen.note()
	r.setStat("solve_s", st.P25, st.relSpread(), note)
	r.setStat("mzups", float64(all[0].zoneUpdates)/st.P25/1e6, st.relSpread(), note)
	if err := w.finish(r, all, cfg.UpdateGolden); err != nil {
		return tr, err
	}
	closePass(r, tr, st, statOfRounds(wallSeconds(traced)))
	if cfg.Trace {
		perStep := st.P25 / float64(all[0].steps)
		if err := w.probes(r, tr, all, perStep); err != nil {
			return tr, fmt.Errorf("probes: %w", err)
		}
	}
	return tr, nil
}

// closePass sets what every workload reports once its checks are counted:
// the failure share, the memory high-water mark and, in the traced pass,
// the quality of the measurement itself. plain and traced are the round
// statistics of the two kinds of round.
func closePass(r *result, tr *tracer, plain, traced roundStat) {
	r.set("failed_frac", float64(r.Failed)/float64(r.Attempted))
	r.set("peak_rss_mb", peakRSSMB())
	if tr == nil {
		return
	}
	r.set("bench.round_s_p50", plain.P50)
	r.set("bench.round_s_iqr", plain.IQR)
	r.setStat("bench.trace_overhead", 1-plain.P25/traced.P25, 0,
		fmt.Sprintf("%d plain, %d traced rounds", plain.N, traced.N))
	r.set("bench.span_cover", spanCover(tr.snapshot(), "round"))
}

// medianSetup sets up several times, each time after an untimed prepare,
// and records the median as setup_s. The first set-up is timed from process
// start, so runtime and package initialisation are in it.
func medianSetup(r *result, prepare func(), setup func() error) error {
	secs := make([]float64, setups)
	for i := range secs {
		prepare()
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs[i] = time.Since(t0).Seconds()
	}
	r.setStat("setup_s", percentile(sortedCopy(secs), 50), 0, fmt.Sprintf("median of %d", setups))
	return nil
}

// collect starts a set-up or a round from a collected heap holding only
// what the workload still needs: one round's garbage is not collected on
// the next round's time, and the heap's high-water mark (peak_rss_mb) does
// not depend on when the collector happened to run.
func collect(w solverWorkload) {
	w.release()
	runtime.GC()
}

func wallSeconds(rounds []roundOut) []float64 {
	out := make([]float64, len(rounds))
	for i, o := range rounds {
		out[i] = o.wall.Seconds()
	}
	return out
}

// peakRSSMB is the process's own high-water resident set. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// fpFloats folds float64 bit patterns into an FNV-1a style digest, one
// word per round: equal digests mean bitwise-identical fields.
func fpFloats(h uint64, vs []float64) uint64 {
	for _, v := range vs {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

const fpSeed = 14695981039346656037

// timeMedian runs fn reps times and returns the median duration in seconds.
func timeMedian(reps int, fn func()) float64 {
	s, _ := timeMedianErr(reps, func() error { fn(); return nil })
	return s
}

// timeMedianErr is timeMedian for calls that can fail; the first error
// stops the repetitions.
func timeMedianErr(reps int, fn func() error) (float64, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return percentile(sortedCopy(ds), 50), nil
}

// probeTimer times probes that can fail and keeps the first error, so a
// run of probes reads as straight-line code and checks once at the end.
type probeTimer struct{ err error }

func (p *probeTimer) seconds(reps int, fn func() error) float64 {
	s, err := timeMedianErr(reps, fn)
	if err != nil && p.err == nil {
		p.err = err
	}
	return s
}
