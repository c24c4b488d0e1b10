package serve

import (
	"strings"
	"testing"
	"time"
)

// TestJobTimeoutWatchdog runs a long job under a tiny wall-clock cap:
// the watchdog must cancel it between steps with the typed reason and
// count it, and the worker must survive to run the next job.
func TestJobTimeoutWatchdog(t *testing.T) {
	s := New(Config{Workers: 1, JobTimeout: 5 * time.Millisecond})
	defer s.Close()

	st, err := s.Submit(JobSpec{Problem: "sod", N: 512, MaxSteps: 100000, TEnd: 10, ReportEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Failed {
		t.Fatalf("state %q (%s), want failed", final.State, final.Reason)
	}
	if !strings.Contains(final.Reason, ErrJobTimeout.Error()) {
		t.Fatalf("reason %q does not carry the typed timeout", final.Reason)
	}
	m := s.Metrics()
	if m.TimedOut != 1 || m.Failed != 1 {
		t.Fatalf("TimedOut = %d, Failed = %d, want 1, 1", m.TimedOut, m.Failed)
	}

	// The pool keeps serving after a timeout: its one worker picks the next
	// job up and takes it to a terminal state. That job runs under the same
	// 5 ms wall cap, so on a loaded host it may time out too — which shows
	// the worker alive just as well as finishing does.
	st2, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	final2, err := s.Wait(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	timedOut := final2.State == Failed && strings.Contains(final2.Reason, ErrJobTimeout.Error())
	if final2.Started.IsZero() || (final2.State != Done && !timedOut) {
		t.Fatalf("follow-up job state %q (%s), started %v; want it run to done or to the typed timeout",
			final2.State, final2.Reason, final2.Started)
	}
	if m := s.Metrics(); m.Completed+m.Failed != 2 {
		t.Fatalf("Completed = %d, Failed = %d: want the two jobs accounted for", m.Completed, m.Failed)
	}
}

// TestJobTimeoutDisabled pins the default: no cap, long jobs run to
// their step budget untouched, and nothing is counted.
func TestJobTimeoutDisabled(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	st, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if final, _ := s.Wait(st.ID); final.State != Done {
		t.Fatalf("state %q (%s), want done", final.State, final.Reason)
	}
	if m := s.Metrics(); m.TimedOut != 0 {
		t.Fatalf("TimedOut = %d, want 0", m.TimedOut)
	}
}
