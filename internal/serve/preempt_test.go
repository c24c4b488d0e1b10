package serve

import (
	"testing"
)

// runQuiet completes one job on an uncontended server and returns its
// terminal status (fingerprint included).
func runQuiet(t *testing.T, spec JobSpec) Status {
	t.Helper()
	s := New(Config{Workers: 1})
	defer s.Close()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Done {
		t.Fatalf("quiet run ended %q (%s)", final.State, final.Reason)
	}
	return final
}

// runContested completes spec on a saturated one-worker server with a
// high-priority arrival forcing at least one checkpoint-preemption, and
// returns the victim's terminal status.
func runContested(t *testing.T, spec JobSpec) Status {
	t.Helper()
	s := New(Config{Workers: 1})
	defer s.Close()
	low, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "victim to make progress", func() bool {
		st, _ := s.Get(low.ID)
		return st.State == Running && st.Step >= 3
	})
	hi := JobSpec{Problem: "sod", N: 64, MaxSteps: 6, Priority: 100}
	hiSt, err := s.Submit(hi)
	if err != nil {
		t.Fatal(err)
	}
	if final, _ := s.Wait(hiSt.ID); final.State != Done {
		t.Fatalf("high-priority job ended %q (%s)", final.State, final.Reason)
	}
	final, err := s.Wait(low.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Done {
		t.Fatalf("victim ended %q (%s)", final.State, final.Reason)
	}
	if final.Preemptions < 1 {
		t.Fatal("victim was never preempted; contested run proves nothing")
	}
	return final
}

// TestPreemptedSerialJobBitwiseIdentical is the serving-layer half of
// the preemption guarantee: a job that was checkpointed, parked and
// resumed finishes with exactly the fingerprint of an uncontested run.
func TestPreemptedSerialJobBitwiseIdentical(t *testing.T) {
	spec := JobSpec{Problem: "sod", N: 128, MaxSteps: 200, TEnd: 10, ReportEvery: 1}
	quiet := runQuiet(t, spec)
	contested := runContested(t, spec)
	if quiet.Fingerprint == "" || quiet.Fingerprint != contested.Fingerprint {
		t.Fatalf("preempted run fingerprint %s != quiet %s",
			contested.Fingerprint, quiet.Fingerprint)
	}
	if quiet.Step != contested.Step {
		t.Fatalf("step counts diverged: %d != %d", contested.Step, quiet.Step)
	}
}

// TestPreemptedAMRJobBitwiseIdentical forces the preemption across
// regrid boundaries (RegridEvery defaults to 4, the job runs 24 steps)
// and requires the resumed hierarchy to match the uncontested one bit
// for bit — structure, conserved and primitive fields alike — for the
// default rk2 job and for an rk3 one, whose tree must honour its
// integrator: the two end on different fingerprints.
func TestPreemptedAMRJobBitwiseIdentical(t *testing.T) {
	fps := map[string]string{}
	for _, rk := range []string{"rk2", "rk3"} {
		spec := JobSpec{Problem: "sod", N: 128, MaxSteps: 120, TEnd: 10, ReportEvery: 1,
			AMR: true, MaxLevel: 2, RootBlocks: 16, Integrator: rk}
		quiet := runQuiet(t, spec)
		contested := runContested(t, spec)
		if quiet.Fingerprint == "" || quiet.Fingerprint != contested.Fingerprint {
			t.Fatalf("%s: preempted AMR run fingerprint %s != quiet %s",
				rk, contested.Fingerprint, quiet.Fingerprint)
		}
		fps[rk] = quiet.Fingerprint
	}
	if fps["rk2"] == fps["rk3"] {
		t.Fatalf("rk2 and rk3 AMR jobs both end on fingerprint %s", fps["rk2"])
	}
}
