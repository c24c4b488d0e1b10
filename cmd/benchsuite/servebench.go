package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"rhsc/internal/metrics"
	"rhsc/internal/serve"
)

// serveClassStats summarises one priority class of the open-loop load.
type serveClassStats struct {
	Class string `json:"class"`
	Jobs  int    `json:"jobs"`
	// WaitP50Ms/WaitP99Ms: queue wait (first dispatch minus submit).
	WaitP50Ms float64 `json:"wait_p50_ms"`
	WaitP99Ms float64 `json:"wait_p99_ms"`
	// LatencyP50Ms/LatencyP99Ms: completion latency (finish minus submit).
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
}

// serveSkewResult is the priority-skewed saturation scenario.
type serveSkewResult struct {
	Jobs           int                   `json:"jobs"`
	Workers        int                   `json:"workers"`
	InterarrivalMs float64               `json:"interarrival_ms"`
	WallMs         float64               `json:"wall_ms"`
	ThroughputJobs float64               `json:"throughput_jobs_per_s"`
	Classes        []serveClassStats     `json:"classes"`
	Counters       metrics.ServeSnapshot `json:"counters"`
}

// serveFaultyResult is the chaos scenario: injected numerical faults
// absorbed by the guard, worker panics absorbed by the pool.
type serveFaultyResult struct {
	Jobs      int                   `json:"jobs"`
	Completed int64                 `json:"completed"`
	Failed    int64                 `json:"failed"`
	Injected  int64                 `json:"injected_faults"`
	Counters  metrics.ServeSnapshot `json:"counters"`
}

// serveAdmissionResult is the capped-tenant scenario.
type serveAdmissionResult struct {
	BurstPerTenant int                   `json:"burst_per_tenant"`
	CappedRejected int64                 `json:"capped_rejected"`
	FreeRejected   int64                 `json:"free_rejected"`
	Counters       metrics.ServeSnapshot `json:"counters"`
}

// serveBenchReport is the BENCH_serve.json payload.
type serveBenchReport struct {
	Generated string               `json:"generated"`
	Host      string               `json:"host"`
	Skew      serveSkewResult      `json:"priority_skew"`
	Faulty    serveFaultyResult    `json:"faulty_workload"`
	Admission serveAdmissionResult `json:"capped_admission"`
}

// percentileMs returns the p-quantile of the sorted durations in ms.
func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e6
}

// serveBench is E16: the job server under an open-loop, priority-skewed
// load — throughput, queue wait and completion latency per priority
// class (the high-priority class must see preemption pay off), fault
// and panic absorption, and per-tenant admission control. Writes
// BENCH_serve.json into the current directory.
func (s *suite) serveBench() error {
	// Sized so the offered load exceeds the two-worker capacity: the
	// queue builds, and every high-priority arrival that meets a busy
	// pool exercises checkpoint-preemption.
	jobs, interarrival := 42, 8*time.Millisecond
	steps := 120
	if s.quick {
		jobs, steps, interarrival = 14, 60, 4*time.Millisecond
	}

	// --- scenario 1: priority-skewed saturation -------------------------
	srv := serve.New(serve.Config{Workers: 2, MaxQueue: 4 * jobs})
	base := serve.JobSpec{Problem: "sod", N: 256, MaxSteps: steps, TEnd: 10, ReportEvery: 8}

	ids := make([]string, 0, jobs)
	prios := make([]int, 0, jobs)
	start := time.Now()
	for i := 0; i < jobs; i++ {
		spec := base
		if i%7 == 3 { // deterministic priority skew: every 7th job is urgent
			spec.Priority = 10
		}
		st, err := srv.Submit(spec)
		if err != nil {
			return err
		}
		ids = append(ids, st.ID)
		prios = append(prios, spec.Priority)
		time.Sleep(interarrival)
	}
	waits := map[int][]time.Duration{}
	lats := map[int][]time.Duration{}
	for i, id := range ids {
		final, err := srv.Wait(id)
		if err != nil {
			return err
		}
		if final.State != serve.Done {
			return fmt.Errorf("job %s ended %q (%s)", id, final.State, final.Reason)
		}
		waits[prios[i]] = append(waits[prios[i]], final.Started.Sub(final.Submitted))
		lats[prios[i]] = append(lats[prios[i]], final.Finished.Sub(final.Submitted))
	}
	wall := time.Since(start)
	srv.Close()

	skew := serveSkewResult{
		Jobs: jobs, Workers: 2,
		InterarrivalMs: float64(interarrival) / 1e6,
		WallMs:         float64(wall) / 1e6,
		ThroughputJobs: float64(jobs) / wall.Seconds(),
		Counters:       srv.Metrics(),
	}
	tb := metrics.NewTable(
		fmt.Sprintf("E16: open-loop serving, %d jobs @ %.0f ms interarrival, 2 workers", jobs, skew.InterarrivalMs),
		"class", "jobs", "wait p50 ms", "wait p99 ms", "latency p50 ms", "latency p99 ms")
	for _, pri := range []int{10, 0} {
		ws, ls := waits[pri], lats[pri]
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		cs := serveClassStats{
			Class: fmt.Sprintf("priority-%d", pri), Jobs: len(ws),
			WaitP50Ms: percentileMs(ws, 0.5), WaitP99Ms: percentileMs(ws, 0.99),
			LatencyP50Ms: percentileMs(ls, 0.5), LatencyP99Ms: percentileMs(ls, 0.99),
		}
		skew.Classes = append(skew.Classes, cs)
		tb.AddRow(cs.Class, cs.Jobs,
			fmt.Sprintf("%.2f", cs.WaitP50Ms), fmt.Sprintf("%.2f", cs.WaitP99Ms),
			fmt.Sprintf("%.2f", cs.LatencyP50Ms), fmt.Sprintf("%.2f", cs.LatencyP99Ms))
	}
	fmt.Print(tb.String())
	fmt.Printf("  throughput %.1f jobs/s, %d preemption(s), %d resumed, %d failed\n",
		skew.ThroughputJobs, skew.Counters.Preempted, skew.Counters.Resumed, skew.Counters.Failed)
	if skew.Counters.Failed != 0 {
		return fmt.Errorf("E16: %d job(s) failed under priority skew", skew.Counters.Failed)
	}

	// --- scenario 2: faulty workload ------------------------------------
	srv = serve.New(serve.Config{Workers: 2})
	n := 10
	if s.quick {
		n = 6
	}
	var injected int64
	wantFail := 0
	fIDs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		spec := base
		switch i % 5 {
		case 1: // numerical fault, absorbed by the guard: still completes
			spec.Inject = &serve.InjectSpec{AtStep: 5, Count: 1}
		case 3: // worker panic, absorbed by the pool: job fails, pool survives
			spec.PanicAtStep = 4
			wantFail++
		}
		st, err := srv.Submit(spec)
		if err != nil {
			return err
		}
		fIDs = append(fIDs, st.ID)
	}
	for _, id := range fIDs {
		final, err := srv.Wait(id)
		if err != nil {
			return err
		}
		injected += final.Injected
	}
	counters := srv.Metrics()
	faulty := serveFaultyResult{
		Jobs:      n,
		Completed: counters.Completed,
		Failed:    counters.Failed,
		Injected:  injected,
		Counters:  counters,
	}
	srv.Close()
	fmt.Printf("  faulty workload: %d jobs, %d completed, %d failed (want %d panics), %d fault(s) absorbed\n",
		n, faulty.Completed, faulty.Failed, wantFail, faulty.Injected)
	if faulty.Failed != int64(wantFail) || faulty.Completed != int64(n-wantFail) {
		return fmt.Errorf("E16: faulty workload completed/failed %d/%d, want %d/%d",
			faulty.Completed, faulty.Failed, n-wantFail, wantFail)
	}

	// --- scenario 3: capped-tenant admission ----------------------------
	srv = serve.New(serve.Config{
		Workers: 2,
		Quotas:  map[string]serve.Quota{"capped": {MaxActive: 2}},
	})
	burst := 8
	if s.quick {
		burst = 4
	}
	adm := serveAdmissionResult{BurstPerTenant: burst}
	var admIDs []string
	for i := 0; i < burst; i++ {
		for _, tenant := range []string{"capped", "free"} {
			spec := base
			spec.Tenant = tenant
			st, err := srv.Submit(spec)
			if err != nil {
				return err
			}
			if st.State == serve.RejectedState {
				if tenant == "capped" {
					adm.CappedRejected++
				} else {
					adm.FreeRejected++
				}
			} else {
				admIDs = append(admIDs, st.ID)
			}
		}
	}
	for _, id := range admIDs {
		if _, err := srv.Wait(id); err != nil {
			return err
		}
	}
	adm.Counters = srv.Metrics()
	srv.Close()
	fmt.Printf("  admission: burst %d/tenant, capped tenant rejected %d, free tenant rejected %d\n",
		burst, adm.CappedRejected, adm.FreeRejected)
	if adm.CappedRejected == 0 || adm.FreeRejected != 0 {
		return fmt.Errorf("E16: admission control rejected capped=%d free=%d, want capped>0 free=0",
			adm.CappedRejected, adm.FreeRejected)
	}

	rep := serveBenchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Host:      fmt.Sprintf("%s/%s, %d core(s)", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Skew:      skew,
		Faulty:    faulty,
		Admission: adm,
	}
	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_serve.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  [json: BENCH_serve.json]")
	return nil
}
