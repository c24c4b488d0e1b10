package serve

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// quickSpec is a small serial job that finishes in a few milliseconds.
func quickSpec() JobSpec {
	return JobSpec{Problem: "sod", N: 64, MaxSteps: 8, ReportEvery: 2}
}

// longSpec is a serial job with enough steps to observe it running:
// TEnd is set far beyond sod's canonical 0.4 so the step budget binds.
func longSpec() JobSpec {
	return JobSpec{Problem: "sod", N: 256, MaxSteps: 400, TEnd: 10, ReportEvery: 4}
}

// waitFor polls until cond() or the deadline; the test fails on timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	st, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Queued {
		t.Fatalf("initial state %q, want queued", st.State)
	}
	final, err := s.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Done {
		t.Fatalf("final state %q (%s), want done", final.State, final.Reason)
	}
	if final.Step != 8 {
		t.Fatalf("final step %d, want 8", final.Step)
	}
	if final.Fingerprint == "" {
		t.Fatal("done job has no fingerprint")
	}
	res, ok := s.Result(st.ID)
	if !ok || len(res) == 0 {
		t.Fatal("done job has no result")
	}
	if !strings.HasPrefix(string(res), "x,") {
		t.Fatalf("result is not a CSV profile: %.40q", res)
	}
	m := s.Metrics()
	if m.Accepted != 1 || m.Completed != 1 || m.Failed != 0 {
		t.Fatalf("metrics %+v, want accepted=1 completed=1 failed=0", m)
	}
}

// TestSubmitReturnsAdmissionSnapshot: Submit's Status is taken under the
// scheduler lock, so however fast a worker picks the job up — one-step
// jobs on two idle workers finish in microseconds — the caller sees the
// admission decision, never a later state.
func TestSubmitReturnsAdmissionSnapshot(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				st, err := s.Submit(JobSpec{Problem: "sod", N: 16, MaxSteps: 1})
				if err != nil {
					t.Error(err)
					return
				}
				if st.State != Queued && st.State != RejectedState {
					t.Errorf("Submit returned state %q, want queued or rejected", st.State)
				}
			}
		}()
	}
	wg.Wait()
}

func TestValidationRejectsBadSpecs(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	bad := []JobSpec{
		{Problem: "no-such-problem"},
		{Problem: "sod", N: 100000},
		{Problem: "sod", Recon: "nope"},
		{Problem: "sod", MaxSteps: -1},
		{Problem: "kh2d", AMR: true, Inject: &InjectSpec{AtStep: 1}},
	}
	for _, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %+v accepted, want validation error", spec)
		}
	}
	if m := s.Metrics(); m.Accepted != 0 {
		t.Fatalf("invalid specs consumed admission: %+v", m)
	}
}

func TestTenantConcurrencyQuota(t *testing.T) {
	s := New(Config{
		Workers: 1,
		Quotas:  map[string]Quota{"alice": {MaxActive: 1}},
	})
	defer s.Close()
	spec := longSpec()
	spec.Tenant = "alice"
	st1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != RejectedState {
		t.Fatalf("second job state %q, want rejected", st2.State)
	}
	if !strings.Contains(st2.Reason, "concurrency") {
		t.Fatalf("rejection reason %q", st2.Reason)
	}
	// Another tenant is unaffected.
	other := quickSpec()
	other.Tenant = "bob"
	st3, err := s.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != Queued {
		t.Fatalf("other tenant state %q, want queued", st3.State)
	}
	if final, _ := s.Wait(st1.ID); final.State != Done {
		t.Fatalf("first job ended %q (%s)", final.State, final.Reason)
	}
	// Quota released after completion: alice can submit again.
	st4, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st4.State != Queued {
		t.Fatalf("post-release state %q, want queued", st4.State)
	}
	if m := s.Metrics(); m.Rejected != 1 {
		t.Fatalf("rejected counter %d, want 1", m.Rejected)
	}
}

func TestTenantBudgetQuota(t *testing.T) {
	// No step cap: the run is CFL-bounded, so actual usage lands below
	// the worst-case admission estimate and reconciliation has teeth.
	spec := JobSpec{Problem: "sod", N: 64}
	cost, err := spec.Cost()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workers: 1,
		Quotas:  map[string]Quota{"capped": {Budget: 2 * cost}},
	})
	defer s.Close()
	spec.Tenant = "capped"
	st1, err := s.Submit(spec) // reserves cost
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Submit(spec) // reserves the rest of the budget
	if err != nil {
		t.Fatal(err)
	}
	st3, err := s.Submit(spec) // 2×cost reserved + cost > budget
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != Queued || st2.State != Queued {
		t.Fatalf("in-budget jobs %q/%q, want queued", st1.State, st2.State)
	}
	if st3.State != RejectedState || !strings.Contains(st3.Reason, "budget") {
		t.Fatalf("over-budget job %q (%s), want budget rejection", st3.State, st3.Reason)
	}
	for _, id := range []string{st1.ID, st2.ID} {
		if final, _ := s.Wait(id); final.State != Done {
			t.Fatalf("job %s ended %q (%s)", id, final.State, final.Reason)
		}
	}
	// Reservations reconciled to actual (smaller) usage; the budget is
	// a lifetime cap, so the spend persists after completion.
	_, reserved, used := s.TenantUsage("capped")
	if reserved != 0 {
		t.Fatalf("reservation not released: %d", reserved)
	}
	if used <= 0 || used >= 2*cost {
		t.Fatalf("reconciled usage %d, want within (0, %d)", used, 2*cost)
	}
	st4, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st4.State != RejectedState {
		t.Fatalf("post-spend job %q, want rejected (lifetime budget)", st4.State)
	}
}

func TestQueueCapacityRejects(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueue: 1})
	defer s.Close()
	st1, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job to start", func() bool {
		st, _ := s.Get(st1.ID)
		return st.State == Running
	})
	st2, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != Queued {
		t.Fatalf("second job %q, want queued", st2.State)
	}
	st3, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != RejectedState || !strings.Contains(st3.Reason, "queue full") {
		t.Fatalf("third job %q (%s), want queue-full rejection", st3.State, st3.Reason)
	}
}

func TestPriorityPreemption(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	low, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "low-priority job to make progress", func() bool {
		st, _ := s.Get(low.ID)
		return st.State == Running && st.Step >= 4
	})
	hiSpec := quickSpec()
	hiSpec.Priority = 10
	hi, err := s.Submit(hiSpec)
	if err != nil {
		t.Fatal(err)
	}
	hiFinal, err := s.Wait(hi.ID)
	if err != nil {
		t.Fatal(err)
	}
	if hiFinal.State != Done {
		t.Fatalf("high-priority job ended %q (%s)", hiFinal.State, hiFinal.Reason)
	}
	lowFinal, err := s.Wait(low.ID)
	if err != nil {
		t.Fatal(err)
	}
	if lowFinal.State != Done {
		t.Fatalf("low-priority job ended %q (%s)", lowFinal.State, lowFinal.Reason)
	}
	if lowFinal.Preemptions < 1 {
		t.Fatalf("low-priority job was never preempted")
	}
	if !hiFinal.Finished.Before(lowFinal.Finished) {
		t.Fatalf("high-priority finished %v, after low-priority %v",
			hiFinal.Finished, lowFinal.Finished)
	}
	if lowFinal.Step != 400 {
		t.Fatalf("resumed job committed %d steps, want 400", lowFinal.Step)
	}
	m := s.Metrics()
	if m.Preempted < 1 || m.Resumed < 1 {
		t.Fatalf("metrics %+v, want preempted>=1 resumed>=1", m)
	}
	if m.Parked != 0 || m.QueueDepth != 0 {
		t.Fatalf("gauges not drained: %+v", m)
	}
}

func TestEqualPriorityDoesNotPreempt(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	first, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job to start", func() bool {
		st, _ := s.Get(first.ID)
		return st.State == Running
	})
	second, err := s.Submit(longSpec()) // same priority: must wait its turn
	if err != nil {
		t.Fatal(err)
	}
	if final, _ := s.Wait(first.ID); final.Preemptions != 0 {
		t.Fatalf("equal-priority arrival preempted the running job")
	}
	if final, _ := s.Wait(second.ID); final.State != Done {
		t.Fatalf("second job ended %q (%s)", final.State, final.Reason)
	}
}

func TestWorkerPanicAbsorbed(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := quickSpec()
	spec.PanicAtStep = 3
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Failed || !strings.Contains(final.Reason, "panic") {
		t.Fatalf("job ended %q (%s), want failed with panic reason", final.State, final.Reason)
	}
	// The worker survived: the next job completes normally.
	st2, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if final2, _ := s.Wait(st2.ID); final2.State != Done {
		t.Fatalf("job after panic ended %q (%s)", final2.State, final2.Reason)
	}
	m := s.Metrics()
	if m.Failed != 1 || m.Completed != 1 {
		t.Fatalf("metrics %+v, want failed=1 completed=1", m)
	}
}

func TestInjectedFaultAbsorbedByGuard(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := JobSpec{Problem: "sod", N: 64, MaxSteps: 12,
		Inject: &InjectSpec{AtStep: 5, Count: 1}}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Done {
		t.Fatalf("faulty job ended %q (%s), want done", final.State, final.Reason)
	}
	if final.Injected < 1 || final.Retries < 1 {
		t.Fatalf("fault counters %+v, want injected>=1 retries>=1", final)
	}
}

func TestDrainSpoolsAndLoadSpoolResumes(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1})
	running, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to make progress", func() bool {
		st, _ := s.Get(running.ID)
		return st.State == Running && st.Step >= 4
	})
	if _, err := s.Submit(quickSpec()); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(dir); err != nil {
		t.Fatalf("drain: %v", err)
	}
	recs, _ := filepath.Glob(filepath.Join(dir, "*.dur"))
	if len(recs) != 2 {
		t.Fatalf("spooled %d durable records, want 2: %v", len(recs), recs)
	}
	if st, _ := s.Get(running.ID); st.State != Parked {
		t.Fatalf("drained running job state %q, want parked", st.State)
	}

	s2 := New(Config{Workers: 1})
	defer s2.Close()
	n, err := s2.LoadSpool(dir)
	if err != nil {
		t.Fatalf("load spool: %v", err)
	}
	if n != 2 {
		t.Fatalf("loaded %d jobs, want 2", n)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.dur")); len(left) != 0 {
		t.Fatalf("spool not consumed: %d records left", len(left))
	}
	for _, st := range s2.List() {
		final, err := s2.Wait(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != Done {
			t.Fatalf("spooled job %s ended %q (%s)", st.ID, final.State, final.Reason)
		}
		if final.Tenant != "default" {
			t.Fatalf("spooled job lost its tenant: %q", final.Tenant)
		}
	}
	// The resumed long job committed exactly its step budget in total.
	for _, st := range s2.List() {
		if st.Step == 400 {
			return
		}
	}
	t.Fatalf("no spooled job finished with 400 total steps: %+v", s2.List())
}

func TestSubmitAfterDrainRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	if err := s.Drain(""); err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != RejectedState || !strings.Contains(st.Reason, "draining") {
		t.Fatalf("post-drain submit %q (%s), want draining rejection", st.State, st.Reason)
	}
}

// TenantUsage reports a tenant's quota consumption.
func (s *Server) TenantUsage(name string) (active int, reserved, used int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t.active, t.reserved, t.used
	}
	return 0, 0, 0
}
