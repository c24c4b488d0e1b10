package serve

import (
	"testing"

	"rhsc/internal/hetero"
)

func twoDeviceFleet(t *testing.T) *FleetPlacer {
	t.Helper()
	var devs []*hetero.Device
	for _, sp := range []hetero.Spec{hetero.SpecHostCPU(4), hetero.SpecHostCPU(2)} {
		d, err := hetero.NewDevice(sp)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
	}
	return NewFleetPlacer(devs...)
}

// deviceIndex returns the router index of the fleet device called name
// (the health report lists the devices in the order they were given).
func deviceIndex(t *testing.T, p *FleetPlacer, name string) int {
	t.Helper()
	for i, h := range p.R.HealthReport() {
		if h.Name == name {
			return i
		}
	}
	t.Fatalf("unknown device %q", name)
	return -1
}

// inRotation reports whether the fleet device called name receives
// placements, read from the router's health report.
func inRotation(t *testing.T, p *FleetPlacer, name string) bool {
	t.Helper()
	h := p.R.HealthReport()[deviceIndex(t, p, name)]
	for st := hetero.Healthy; st <= hetero.Dead; st++ {
		if st.String() == h.State {
			return st.InRotation()
		}
	}
	t.Fatalf("device %q in unknown state %q", name, h.State)
	return false
}

// Jobs must land on routed capacity — Status.Device names the fleet
// device hosting the segment and the router counts the lease.
func TestPlacedJobLandsOnRoutedCapacity(t *testing.T) {
	p := twoDeviceFleet(t)
	s := New(Config{Workers: 1, Placer: p})
	defer s.Close()
	st, err := s.Submit(JobSpec{Problem: "sod", N: 64, MaxSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Done {
		t.Fatalf("job ended %q (%s)", final.State, final.Reason)
	}
	if final.Device == "" {
		t.Fatal("placed job reported no device")
	}
	if p.R.C.Leases.Load() == 0 {
		t.Error("router counted no leases")
	}
	if p.R.C.LeaseFaults.Load() != 0 {
		t.Error("clean job counted as lease fault")
	}
}

// A device whose jobs keep dying must drain out of the placement
// rotation; later jobs land on the surviving device and still complete.
func TestPlacerFaultsDrainDevice(t *testing.T) {
	p := twoDeviceFleet(t)
	s := New(Config{Workers: 1, Placer: p})
	defer s.Close()

	// Panicking jobs fault whichever device hosts them until it drains.
	var sick string
	for i := 0; i < 6; i++ {
		st, err := s.Submit(JobSpec{Problem: "sod", N: 64, MaxSteps: 8, PanicAtStep: 2})
		if err != nil {
			t.Fatal(err)
		}
		final, err := s.Wait(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != Failed {
			t.Fatalf("panic job ended %q", final.State)
		}
		if sick == "" {
			sick = final.Device
		}
		if !inRotation(t, p, sick) {
			break
		}
	}
	if sick == "" {
		t.Fatal("no device hosted the failing jobs")
	}
	if inRotation(t, p, sick) {
		t.Fatalf("device %q still in rotation after repeated faults", sick)
	}
	if p.R.C.LeaseFaults.Load() == 0 || p.R.C.Drains.Load() == 0 {
		t.Error("faults/drains not counted")
	}

	// A clean job now lands on the survivor and completes.
	st, err := s.Submit(JobSpec{Problem: "sod", N: 64, MaxSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Done {
		t.Fatalf("clean job ended %q (%s)", final.State, final.Reason)
	}
	if final.Device == sick {
		t.Fatalf("clean job placed on drained device %q", sick)
	}
}

// Chaos under preemption: a job is checkpoint-preempted, the device that
// hosted it dies while it is parked, and the resumed segment lands on
// the survivor — finishing bit-identical to an uncontested, fault-free
// run. This is the serve half of the reroute guarantee.
func TestChaosDeviceDeathUnderPreemption(t *testing.T) {
	spec := JobSpec{Problem: "sod", N: 128, MaxSteps: 200, TEnd: 10, ReportEvery: 1}
	quiet := runQuiet(t, spec)

	p := twoDeviceFleet(t)
	s := New(Config{Workers: 1, Placer: p})
	defer s.Close()
	low, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "victim to make progress", func() bool {
		st, _ := s.Get(low.ID)
		return st.State == Running && st.Step >= 3
	})
	firstDev := func() string { st, _ := s.Get(low.ID); return st.Device }()
	if firstDev == "" {
		t.Fatal("victim not placed")
	}
	// The device hosting the victim fail-stops mid-run (the in-flight
	// segment keeps its lease — fail-stop is discovered at placement
	// time); the checkpoint-preemption that follows parks the job, and
	// its resume must route around the dead device.
	p.R.MarkDead(deviceIndex(t, p, firstDev))

	hiSt, err := s.Submit(JobSpec{Problem: "sod", N: 64, MaxSteps: 6, Priority: 100})
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
		t.Fatal("victim was never preempted")
	}
	if final.Device == firstDev {
		t.Fatalf("resumed segment stayed on dead device %q", firstDev)
	}
	if quiet.Fingerprint == "" || final.Fingerprint != quiet.Fingerprint {
		t.Fatalf("chaos run fingerprint %s != quiet %s — preemption+death changed the numerics",
			final.Fingerprint, quiet.Fingerprint)
	}
	if p.R.C.Deaths.Load() != 1 {
		t.Error("death not counted")
	}
}

// When every device is out of rotation the placer refuses and the job
// still runs — on unrouted host capacity.
func TestPlacerFallbackWhenFleetDead(t *testing.T) {
	p := twoDeviceFleet(t)
	p.R.MarkDead(0)
	p.R.MarkDead(1)
	s := New(Config{Workers: 1, Placer: p})
	defer s.Close()
	st, err := s.Submit(JobSpec{Problem: "sod", N: 64, MaxSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Done {
		t.Fatalf("job ended %q (%s)", final.State, final.Reason)
	}
	if final.Device != "" {
		t.Fatalf("dead fleet still placed the job on %q", final.Device)
	}
	if p.R.C.Leases.Load() != 0 {
		t.Error("dead fleet granted leases")
	}
}
