package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Workload names are permanent: ledgers taken at different commits are
// compared row by row on (metric, workload).
const (
	wlFused   = "blast3d-fused"
	wlGeneric = "blast3d-generic"
	wlHetero  = "hetero-blast3d"
	wlDamr    = "damr-blast2d"
	wlServe   = "serve-burst"
)

type workloadDef struct {
	Name string
	Why  string
}

// workloads is the fixed workload list; BENCHMARK.json repeats it.
var workloads = []workloadDef{
	{wlFused, "PLM-MC+HLLC+RK2 on the fused, tiled, serial kernel: the paper's single-node rate and the plain single-thread baseline; no other layer runs, so their changes must not move it"},
	{wlGeneric, "same 48^3 blast with PPM+HLL, which has no fused kernel, so the interface-dispatched path runs: a generic-kernel speed-up shows here and not on blast3d-fused"},
	{wlHetero, "the fused blast with a hetero executor attached, which selects the strip traversal and the device planner: tile-based device planning or a planner regression shows here only"},
	{wlDamr, "2-rank distributed AMR over the reliable transport from init to gathered tree: exchange, sync and wait dominate the gap to serial amr, so halo and transport changes move it most"},
	{wlServe, "open-loop bursts of mixed jobs over HTTP from POST to CSV: admission, queueing, park/resume and result encoding dominate the small jobs, so serve-layer changes show here"},
}

var (
	kernelWLs = []string{wlFused, wlGeneric, wlHetero}
	allWLs    = []string{wlFused, wlGeneric, wlHetero, wlDamr, wlServe}
)

// metricDef describes one ledger metric. End-to-end metrics carry the
// bound -compare applies; Bound 0 means any worsening is a violation
// (exact counts and correctness measures). Contract marks the end-to-end
// metrics that are defined and non-zero on every workload: only those can
// be BENCHMARK.json end_to_end entries, the rest ride in its per_layer
// list and print 0 where they do not apply.
type metricDef struct {
	Name     string
	Unit     string
	Better   string // "lower" or "higher"
	Bound    float64
	EndToEnd bool
	Contract bool
	On       []string
}

func (m metricDef) appliesTo(workload string) bool {
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

func e2e(name, unit, better string, bound float64, contract bool, on []string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: bound, EndToEnd: true, Contract: contract, On: on}
}

func layer(name, unit, better string, on []string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, On: on}
}

var (
	onHetero = []string{wlHetero}
	onDamr   = []string{wlDamr}
	onServe  = []string{wlServe}
	onVirt   = []string{wlHetero, wlDamr}
)

// metricDefs is the whole ledger vocabulary. bench/README.md explains each
// entry and which end-to-end metric a per-layer one is predicted to move.
var metricDefs = []metricDef{
	// End to end.
	e2e("setup_s", "s", "lower", 0.25, true, allWLs),                   // median of the set-ups made in one run: build, warm-up, checkpoint, reference run, server boot
	e2e("solve_s", "s", "lower", 0.25, true, allWLs),                   // p25 round wall time: time to solution of the fixed problem (serve-burst: p25 burst drain time)
	e2e("mzups", "Mzone/s", "higher", 0.25, true, allWLs),              // round zone-updates over solve_s, wall clock
	e2e("peak_rss_mb", "MB", "lower", 0.25, true, allWLs),              // ru_maxrss of the workload's own process
	e2e("virtual_s", "virt_s", "lower", 0.01, false, onVirt),           // modelled seconds of one round on the virtual clock; never mixed with wall columns
	e2e("l1_rho", "rho", "lower", 0, false, allWLs),                    // mean |delta rho| against the workload's reference
	e2e("failed_frac", "ratio", "lower", 0, false, allWLs),             // failed over attempted steps, jobs and verifications
	e2e("job_latency_p50_ms", "ms/job", "lower", 0.25, false, onServe), // median job latency from due time to result bytes
	e2e("job_latency_p95_ms", "ms/job", "lower", 0.25, false, onServe), // tail job latency at the highest percentile up to 95 with ten samples beyond it
	e2e("jobs_per_s", "1/s", "higher", 0.25, false, onServe),           // burst size over p25 burst drain time

	// core, on the three uniform-grid workloads.
	layer("core.step_ns_zone", "ns/zone", "lower", kernelWLs),       // MaxDt+Step span time per zone per step
	layer("core.rhs_ns_zone", "ns/zone", "lower", kernelWLs),        // ComputeRHS probe per zone
	layer("core.recover_ns_zone", "ns/zone", "lower", kernelWLs),    // RecoverPrimitives probe per zone after an Euler update
	layer("core.maxdt_us", "us/call", "lower", kernelWLs),           // uncached MaxDt traversal
	layer("core.allocs_per_step", "count", "lower", kernelWLs),      // heap allocations per steady-state step
	layer("core.bytes_per_zone_computed", "B", "lower", kernelWLs),  // bytes moved per zone per step, computed from array sizes
	layer("recon.ns_face", "ns/face", "lower", kernelWLs),           // configured scheme's Reconstruct per face, five components
	layer("riemann.ns_face", "ns/face", "lower", kernelWLs),         // configured solver's Flux per face
	layer("c2p.ns_zone", "ns/zone", "lower", kernelWLs),             // RecoverRange per zone after an Euler update
	layer("c2p.newton_iters_per_call", "count", "lower", kernelWLs), // Newton iterations per inversion over the traced rounds
	layer("c2p.bisect_frac", "ratio", "lower", kernelWLs),           // inversions that fell back to bisection
	layer("c2p.failures", "count", "lower", kernelWLs),              // inversions reset to atmosphere
	layer("state.axpy_gb_s", "GB/s", "higher", kernelWLs),           // Fields.AXPY rate on the workload's own arrays, cache resident
	layer("par.speedup", "ratio", "higher", kernelWLs),              // serial step time over Threads=nproc step time
	layer("par.for_overhead_us", "us/call", "lower", kernelWLs),     // empty ParallelFor call

	// hetero.
	layer("hetero.wall_vs_tiled", "ratio", "lower", onHetero),      // attached ns/zone over unattached Threads=nproc ns/zone
	layer("hetero.imbalance", "ratio", "lower", onHetero),          // max over mean device busy time, minus one
	layer("hetero.gpu_share", "ratio", "higher", onHetero),         // share of zones the modelled GPU swept
	layer("hetero.backoff_virtual_s", "virt_s", "lower", onHetero), // virtual seconds in retry backoff

	// amr, on the serial reference tree of damr-blast2d.
	layer("amr.step_ns_zone", "ns/zone", "lower", onDamr), // serial tree wall time per zone per step
	layer("amr.sync_us", "us/call", "lower", onDamr),      // SyncAll on a clone
	layer("amr.regrid_ms", "ms/call", "lower", onDamr),    // one regrid cycle on a Save/Load clone
	layer("amr.leaves", "count", "lower", onDamr),         // final leaf count
	layer("amr.ghost_frac", "ratio", "lower", onDamr),     // ghost cells over stored cells per leaf, computed
	layer("amr.encode_mb_s", "MB/s", "higher", onDamr),    // EncodeLeaves over all leaves
	layer("amr.decode_mb_s", "MB/s", "higher", onDamr),    // DecodeLeaves of that blob
	layer("amr.save_ms", "ms/call", "lower", onDamr),      // SaveExact of the final tree
	layer("amr.load_ms", "ms/call", "lower", onDamr),      // Load of that checkpoint

	// damr.
	layer("damr.wall_speedup", "ratio", "higher", onDamr),         // serial amr wall over damr wall
	layer("damr.comm_wall_frac", "ratio", "lower", onDamr),        // 1 - (serial/ranks)/damr wall, computed
	layer("damr.parallel_eff_virtual", "ratio", "higher", onDamr), // 1-rank virtual time over ranks x virtual time
	layer("damr.rebalance_frac", "ratio", "lower", onDamr),        // virtual share of regrid and migration
	layer("damr.halo_bytes_per_step", "B", "lower", onDamr),       // payload bytes per step outside migration and checkpoints
	layer("damr.migrated_bytes", "B", "lower", onDamr),            // migration payload
	layer("damr.migrated_blocks", "count", "lower", onDamr),       // blocks whose owner changed
	layer("damr.ckpt_bytes", "B", "lower", onDamr),                // buddy checkpoint payload
	layer("damr.imbalance", "ratio", "lower", onDamr),             // step-averaged partition imbalance
	layer("damr.regrids", "count", "lower", onDamr),               // regrid evaluations

	// cluster.
	layer("cluster.frames", "count", "lower", onDamr),                 // data frames posted
	layer("cluster.sent_bytes", "B", "lower", onDamr),                 // payload bytes posted
	layer("cluster.acks", "count", "lower", onDamr),                   // acknowledgements posted
	layer("cluster.retransmits", "count", "lower", onDamr),            // frames re-sent
	layer("cluster.retransmit_ratio", "ratio", "lower", onDamr),       // retransmits over all transmission attempts: wasted attempts on a clean fabric
	layer("cluster.timeouts", "count", "lower", onDamr),               // receives that hit their deadline
	layer("cluster.pingpong_us", "us/call", "lower", onDamr),          // round trip of one leaf payload on the default fabric
	layer("cluster.reliable_pingpong_us", "us/call", "lower", onDamr), // the same over the reliable transport
	layer("cluster.allreduce_us", "us/call", "lower", onDamr),         // AllReduceMin across the ranks

	// durable, output, resilience, probed with serve-burst's own payloads.
	layer("durable.commit_ms", "ms/call", "lower", onServe),       // Store.Commit of one parked-job snapshot
	layer("durable.load_ms", "ms/call", "lower", onServe),         // Store.Load of it
	layer("durable.frame_mb_s", "MB/s", "higher", onServe),        // frame Writer into memory
	layer("durable.verify_mb_s", "MB/s", "higher", onServe),       // frame Reader with Verify
	layer("durable.fsyncs_per_commit", "count", "lower", onServe), // fsyncs over commits
	layer("output.ckpt_encode_ms", "ms/call", "lower", onServe),   // SaveCheckpointExact of the batch job's grid
	layer("output.ckpt_decode_ms", "ms/call", "lower", onServe),   // LoadCheckpointFull of it
	layer("output.ckpt_bytes", "B", "lower", onServe),             // size of that checkpoint
	layer("output.csv_ms", "ms/call", "lower", onServe),           // WriteSlabCSV of the batch job's grid
	layer("resilience.guard_overhead", "ratio", "lower", onServe), // JobRunner.StepOnce over Sim.Step

	// serve. urgent_latency_p50_ms is the issue's eleventh end-to-end metric,
	// demoted by the issue's own rule: a job of 4 ms queued behind 10 ms
	// scheduler quanta spreads 60% from run to run, past any bound.
	layer("urgent_latency_p50_ms", "ms/job", "lower", onServe),   // median latency of the priority-10 class, due time to result bytes
	layer("serve.submit_us", "us/call", "lower", onServe),        // Server.Submit in process
	layer("serve.http_post_us", "us/call", "lower", onServe),     // median POST /v1/jobs round trip
	layer("serve.queue_wait_ms_p50", "ms/job", "lower", onServe), // median Started - Submitted
	layer("serve.queue_wait_ms_p95", "ms/job", "lower", onServe), // tail Started - Submitted
	layer("serve.run_ms_p50", "ms/job", "lower", onServe),        // median Finished - Started
	layer("serve.result_fetch_us", "us/call", "lower", onServe),  // median GET result round trip
	layer("serve.preempted", "count", "lower", onServe),          // jobs parked for a higher priority
	layer("serve.resumed", "count", "lower", onServe),            // parked jobs restored
	layer("serve.busy_frac", "ratio", "higher", onServe),         // sampled busy workers over pool size
	layer("serve.drain_ms", "ms/call", "lower", onServe),         // Drain to spool with jobs in flight
	layer("serve.loadspool_ms", "ms/call", "lower", onServe),     // LoadSpool on a fresh server
	layer("serve.rejected", "count", "lower", onServe),           // jobs refused at admission

	// bench: the quality of the measurement itself.
	layer("bench.round_s_p50", "s", "lower", allWLs),           // median round
	layer("bench.round_s_iqr", "s", "lower", allWLs),           // interquartile range over rounds
	layer("bench.trace_overhead", "ratio", "lower", allWLs),    // 1 - p25 untraced round over p25 traced round, interleaved
	layer("bench.gen_late_ms_p95", "ms/job", "lower", onServe), // how late the open-loop generator posted, against the due time
	layer("bench.span_cover", "ratio", "higher", allWLs),       // share of round wall time covered by child spans
}

func defOf(name string) (metricDef, bool) {
	for _, m := range metricDefs {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// result collects one run of one workload.
type result struct {
	Workload  string
	Seed      int64
	Trace     bool
	Values    map[string]float64
	Spread    map[string]float64 // IQR over median of the underlying samples, where there are any
	Note      map[string]string  // sample counts, percentile actually used, probe bases
	Attempted int
	Failed    int
	Incorrect []string // verification failures; any entry makes the run incorrect
	dup       []string
}

func newResult(workload string, seed int64, trace bool) *result {
	return &result{
		Workload: workload, Seed: seed, Trace: trace,
		Values: map[string]float64{}, Spread: map[string]float64{}, Note: map[string]string{},
	}
}

// set records a metric. Unknown names and metrics that do not belong to
// the workload are programming errors; a second set of one name is kept for
// the test that asserts every metric is emitted once.
func (r *result) set(name string, v float64) {
	d, ok := defOf(name)
	if !ok {
		panic("bench: unknown metric " + name)
	}
	if !d.appliesTo(r.Workload) {
		panic("bench: metric " + name + " is not defined on " + r.Workload)
	}
	if _, seen := r.Values[name]; seen {
		r.dup = append(r.dup, name)
	}
	r.Values[name] = v
}

func (r *result) setStat(name string, v, relSpread float64, note string) {
	r.set(name, v)
	r.Spread[name] = relSpread
	if note != "" {
		r.Note[name] = note
	}
}

// attempt counts n operations (steps, jobs) of which failed failed.
func (r *result) attempt(n, failed int) {
	r.Attempted += n
	r.Failed += failed
}

// verify counts one output check; a failed check also marks the run
// incorrect, so a broken output can never hide as a skipped comparison.
func (r *result) verify(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Incorrect = append(r.Incorrect, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.Incorrect) == 0 }

// wanted lists the metrics this run must have emitted: the end-to-end set
// with tracing off, everything with tracing on (the traced pass repeats
// the end-to-end measurements on its own shorter run).
func wanted(workload string, trace bool) []metricDef {
	var out []metricDef
	for _, m := range metricDefs {
		if m.appliesTo(workload) && (trace || m.EndToEnd) {
			out = append(out, m)
		}
	}
	return out
}

// check reports metrics that are missing, duplicated or not finite.
func (r *result) check() error {
	var bad []string
	for _, m := range wanted(r.Workload, r.Trace) {
		v, ok := r.Values[m.Name]
		switch {
		case !ok:
			bad = append(bad, m.Name+" missing")
		case math.IsNaN(v) || math.IsInf(v, 0):
			bad = append(bad, fmt.Sprintf("%s = %v", m.Name, v))
		}
	}
	for _, n := range r.dup {
		bad = append(bad, n+" emitted twice")
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("bench: %s: %s", r.Workload, strings.Join(bad, "; "))
	}
	return nil
}

// table renders every emitted metric by name with its unit.
func (r *result) table() string {
	var b strings.Builder
	for _, m := range metricDefs {
		v, ok := r.Values[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-30s %16.6g %-8s", m.Name, v, m.Unit)
		if n := r.Note[m.Name]; n != "" {
			fmt.Fprintf(&b, " (%s)", n)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
