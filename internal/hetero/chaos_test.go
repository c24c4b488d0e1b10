package hetero

import (
	"errors"
	"math"
	"sync"
	"testing"

	"rhsc/internal/amr"
	"rhsc/internal/core"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// runBlast steps a 2-D blast problem and returns the final density field.
func runBlast(t *testing.T, n, steps int, attach func(*core.Solver)) []float64 {
	t.Helper()
	p := testprob.Blast2D
	g := p.NewGrid(n, 2)
	s, err := core.New(g, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if attach != nil {
		attach(s)
	}
	s.InitFromPrim(p.Init)
	for i := 0; i < steps; i++ {
		if err := s.Step(s.MaxDt()); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]float64, g.NCells())
	copy(out, g.U.Comp[state.ID])
	return out
}

func wantBitwise(t *testing.T, name string, plain, chaotic []float64) {
	t.Helper()
	for i := range plain {
		if plain[i] != chaotic[i] {
			t.Fatalf("%s: cell %d differs: %v vs %v — chaos changed the numerics", name, i, plain[i], chaotic[i])
		}
	}
}

// The headline guarantee: a run with a device dying mid-flight completes
// bitwise identical to a fault-free run, with the in-flight tiles
// rerouted onto the survivors.
func TestChaosDeathBitwiseIdentical(t *testing.T) {
	plain := runBlast(t, 48, 4, nil)
	ex := MustExecutor(Routed,
		MustDevice(SpecHostCPU(2)), MustDevice(SpecK20GPU()), MustDevice(SpecXeonPhi()))
	ex.Chaos = &ChaosSchedule{Events: []ChaosEvent{
		{Kind: DeviceDeath, Device: 1, Phase: 3},
	}}
	chaotic := runBlast(t, 48, 4, func(s *core.Solver) { ex.Attach(s) })
	wantBitwise(t, "death", plain, chaotic)

	if !ex.Degraded() {
		t.Error("death did not set degraded mode")
	}
	c := ex.Router().C
	if c.Deaths.Load() != 1 {
		t.Errorf("deaths = %d, want 1", c.Deaths.Load())
	}
	if c.Reroutes.Load() == 0 {
		t.Error("no tiles rerouted off the dying device")
	}
	if ex.Stats.Retries.Load() == 0 || ex.BackoffVirtual() <= 0 {
		t.Error("death charged no retry backoff")
	}
	rep := ex.Report()
	if !rep[1].Faulted || rep[1].State != "dead" {
		t.Errorf("dead device report = %+v", rep[1])
	}
	// The dead device must receive no work after the death phase; the
	// survivors carried the rest of the run.
	if rep[0].Zones == 0 || rep[2].Zones == 0 {
		t.Error("survivors idle after reroute")
	}
}

// A latency spike must drain the straggler (observed-vs-median straggler
// detection — the planner only sees nominal specs) and, once the spike
// passes, a probe must bring the device back into rotation. Numerics stay
// bitwise identical throughout.
func TestChaosSpikeDrainsAndUndrains(t *testing.T) {
	const steps = 10
	plain := runBlast(t, 48, steps, nil)
	ex := MustExecutor(Routed,
		MustDevice(SpecHostCPU(2)), MustDevice(SpecHostCPU(2)), MustDevice(SpecK20GPU()))
	ex.Chaos = &ChaosSchedule{Events: []ChaosEvent{
		{Kind: LatencySpike, Device: 2, Phase: 2, Duration: 8, Factor: 12},
	}}
	chaotic := runBlast(t, 48, steps, func(s *core.Solver) { ex.Attach(s) })
	wantBitwise(t, "spike", plain, chaotic)

	c := ex.Router().C
	if c.Drains.Load() == 0 {
		t.Error("spiked straggler never drained")
	}
	if c.Probes.Load() == 0 {
		t.Error("drained device never probed")
	}
	if c.Undrains.Load() == 0 {
		t.Error("device never undrained after the spike passed")
	}
	if st := ex.Router().State(2); !st.InRotation() {
		t.Errorf("post-spike state = %v, want back in rotation", st)
	}
	if ex.Degraded() {
		t.Error("a transient spike must not set degraded mode")
	}
}

// A device flapping mid-run must not corrupt the numerics, and the
// router has to notice the instability (drains with probes cycling).
func TestChaosFlapBitwiseIdentical(t *testing.T) {
	const steps = 8
	plain := runBlast(t, 48, steps, nil)
	ex := MustExecutor(Routed,
		MustDevice(SpecHostCPU(2)), MustDevice(SpecHostCPU(2)), MustDevice(SpecK20GPU()))
	ex.Chaos = &ChaosSchedule{Events: []ChaosEvent{
		{Kind: LatencyFlap, Device: 2, Phase: 1, Factor: 10, Period: 3},
	}}
	chaotic := runBlast(t, 48, steps, func(s *core.Solver) { ex.Attach(s) })
	wantBitwise(t, "flap", plain, chaotic)
	if ex.Router().C.Drains.Load() == 0 {
		t.Error("flapping device never drained")
	}
}

// Last-healthy-device demotion: when chaos kills the whole fleet, the
// executor falls back to the degraded serial path and still finishes with
// bitwise-identical results.
func TestChaosTotalDeathDegradedSerial(t *testing.T) {
	plain := runBlast(t, 32, 3, nil)
	ex := MustExecutor(Routed, MustDevice(SpecHostCPU(2)), MustDevice(SpecK20GPU()))
	ex.Chaos = &ChaosSchedule{Events: []ChaosEvent{
		{Kind: DeviceDeath, Device: 0, Phase: 2},
		{Kind: DeviceDeath, Device: 1, Phase: 2},
	}}
	chaotic := runBlast(t, 32, 3, func(s *core.Solver) { ex.Attach(s) })
	wantBitwise(t, "total death", plain, chaotic)
	if !ex.Degraded() {
		t.Error("total fleet loss did not degrade")
	}
	if d := ex.Router().C.Deaths.Load(); d != 2 {
		t.Errorf("deaths = %d, want 2", d)
	}
	if ex.VirtualTime() <= 0 {
		t.Error("no virtual time accumulated on the degraded path")
	}
}

// Flap detection at the router level: a device that drains FlapLimit
// times inside the flap window is quarantined with an exponential hold,
// instead of being endlessly re-admitted.
func TestRouterFlapQuarantine(t *testing.T) {
	devs := []*Device{
		MustDevice(Spec{Name: "a", ZoneRate: 1e6, Workers: 1}),
		MustDevice(Spec{Name: "b", ZoneRate: 1e6, Workers: 1}),
		MustDevice(Spec{Name: "flappy", ZoneRate: 1e6, Workers: 1}),
	}
	r := NewRouter(devs...)
	perZone := func(slow float64) float64 { return slow / 1e6 }
	obs := func(flapSlow float64) []Obs {
		return []Obs{
			{Dev: 0, Zones: 1000, Busy: 1000 * perZone(1)},
			{Dev: 1, Zones: 1000, Busy: 1000 * perZone(1)},
			{Dev: 2, Zones: 1000, Busy: 1000 * perZone(flapSlow)},
		}
	}
	quarantined := false
	for cycle := 0; cycle < 4 && !quarantined; cycle++ {
		// Degraded phases until the router drains the flapper.
		for i := 0; i < 20 && r.State(2).InRotation(); i++ {
			r.ObservePhase(obs(10))
		}
		st := r.State(2)
		if st == Quarantined {
			quarantined = true
			break
		}
		if st != Drained {
			t.Fatalf("cycle %d: state = %v, want drained", cycle, st)
		}
		// Clean phases: the hold expires, the probe sees a healthy device,
		// and the router re-admits it — the flap.
		for i := 0; i < 20 && r.State(2) != Healthy; i++ {
			r.ObservePhase(obs(1))
			if r.State(2) == Quarantined {
				quarantined = true
				break
			}
		}
	}
	if !quarantined {
		t.Fatalf("flapping device never quarantined (drains=%d)", r.C.Drains.Load())
	}
	if r.C.Quarantines.Load() == 0 {
		t.Error("quarantine counter not incremented")
	}
	if r.State(2).InRotation() {
		t.Error("quarantined device still in rotation")
	}
}

// Routed execution across an AMR regrid: the executor attaches to every
// leaf solver the tree creates (including blocks born mid-run), a device
// dies while the mesh is adapting, and the result matches the plain AMR
// run bitwise at every sample point.
func TestChaosRerouteDuringAMRRegrid(t *testing.T) {
	run := func(attach func(*core.Solver)) *amr.Tree {
		cfg := amr.DefaultConfig(core.DefaultConfig())
		cfg.MaxLevel = 1
		cfg.RegridEvery = 2
		cfg.Attach = attach
		tr, err := amr.NewTree(testprob.Sod, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := tr.Step(tr.MaxDt()); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	plain := run(nil)
	ex := MustExecutor(Routed, MustDevice(SpecHostCPU(2)), MustDevice(SpecK20GPU()))
	// Many leaf phases per tree step: kill the GPU deep inside the run,
	// well after the first regrids have spawned fresh leaves.
	ex.Chaos = &ChaosSchedule{Events: []ChaosEvent{
		{Kind: DeviceDeath, Device: 1, Phase: 40},
	}}
	chaotic := run(func(s *core.Solver) { ex.Attach(s) })

	if plain.NumLeaves() != chaotic.NumLeaves() {
		t.Fatalf("leaf count differs: %d vs %d — chaos changed refinement", plain.NumLeaves(), chaotic.NumLeaves())
	}
	for i := 0; i < 64; i++ {
		x := (float64(i) + 0.5) / 64
		p, c := plain.SampleAt(x, 0), chaotic.SampleAt(x, 0)
		if p.Rho != c.Rho || p.P != c.P || p.Vx != c.Vx {
			t.Fatalf("x=%v: plain %+v vs chaotic %+v", x, p, c)
		}
	}
	if ex.Router().C.Deaths.Load() != 1 {
		t.Error("device death not recorded during AMR run")
	}
	if !ex.Degraded() {
		t.Error("AMR chaos run not degraded")
	}
}

// Satellite: TraceEvents/Stats/Report read paths must be safe while a
// chaos run is rerouting tiles. Run with -race.
func TestConcurrentReadsDuringChaosRun(t *testing.T) {
	ex := MustExecutor(Routed,
		MustDevice(SpecHostCPU(2)), MustDevice(SpecK20GPU()), MustDevice(SpecXeonPhi()))
	ex.Trace = true
	ex.Chaos = &ChaosSchedule{Events: []ChaosEvent{
		{Kind: DeviceDeath, Device: 2, Phase: 5},
		{Kind: LatencySpike, Device: 1, Phase: 2, Duration: 6, Factor: 8},
	}}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reader: hammer every exported read path mid-run
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = ex.TraceEvents()
			_ = ex.Report()
			_ = ex.VirtualTime()
			_ = ex.BackoffVirtual()
			_ = ex.Imbalance()
			_ = ex.Degraded()
			_ = ex.Stats.Snapshot()
			_ = ex.Router().HealthReport()
			_ = ex.Router().EquivalentCapacity()
		}
	}()
	_ = runBlast(t, 48, 4, func(s *core.Solver) { ex.Attach(s) })
	close(done)
	wg.Wait()

	if len(ex.TraceEvents()) == 0 {
		t.Error("no trace recorded")
	}
	if ex.Router().C.Deaths.Load() != 1 {
		t.Error("chaos death lost")
	}
}

// Two solvers attached to one executor may step at once: each phase
// plans in its own scratch (the second builds one when the idle one is
// taken) and reads the affinity memory only under the lock, so both runs
// stay bitwise equal to the plain solver. Run with -race.
func TestConcurrentPhasesShareExecutor(t *testing.T) {
	const n, steps = 32, 4
	plain := runBlast(t, n, steps, nil)
	for _, pol := range []Policy{Static, Dynamic, Routed} {
		ex := MustExecutor(pol, MustDevice(SpecHostCPU(2)), MustDevice(SpecK20GPUStaged()))
		var sols [2]*core.Solver
		for k := range sols {
			g := testprob.Blast2D.NewGrid(n, 2)
			s, err := core.New(g, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			ex.Attach(s)
			s.InitFromPrim(testprob.Blast2D.Init)
			sols[k] = s
		}
		var wg sync.WaitGroup
		for _, s := range sols {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < steps; i++ {
					if err := s.Step(s.MaxDt()); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, s := range sols {
			wantBitwise(t, pol.String(), plain, s.G.U.Comp[state.ID][:s.G.NCells()])
		}
	}
}

// Legacy-policy chaos: the schedule also guards Static and Dynamic runs.
func TestChaosOnLegacyPolicies(t *testing.T) {
	plain := runBlast(t, 32, 3, nil)
	for _, pol := range []Policy{Static, Dynamic} {
		ex := MustExecutor(pol, MustDevice(SpecHostCPU(2)), MustDevice(SpecK20GPU()))
		ex.Chaos = &ChaosSchedule{Events: []ChaosEvent{
			{Kind: DeviceDeath, Device: 1, Phase: 2},
		}}
		chaotic := runBlast(t, 32, 3, func(s *core.Solver) { ex.Attach(s) })
		wantBitwise(t, pol.String(), plain, chaotic)
		if !ex.Degraded() {
			t.Errorf("%v: not degraded after death", pol)
		}
	}
}

// faultRun advances the 48² blast three steps (six phases) on a CPU+GPU
// pair with tracing on; deathPhase ≥ 0 fail-stops the GPU (device 1) at
// that phase with two flaky retries. It returns the executor and the
// final density field.
func faultRun(t *testing.T, pol Policy, deathPhase int64) (*Executor, []float64) {
	t.Helper()
	ex := MustExecutor(pol, MustDevice(SpecHostCPU(4)), MustDevice(SpecK20GPU()))
	ex.Trace = true
	if deathPhase >= 0 {
		ex.Chaos = &ChaosSchedule{FlakyRetries: 2, Events: []ChaosEvent{
			{Kind: DeviceDeath, Device: 1, Phase: deathPhase},
		}}
	}
	u := runBlast(t, 48, 3, func(s *core.Solver) { ex.Attach(s) })
	return ex, u
}

// TestFaultDeviceReexecution: a device death must re-execute the lost
// kernels on the healthy device after the flaky retries and their
// exponential backoff, flag degraded mode, and leave the solution bitwise
// identical to the fault-free run — only the virtual clocks and the
// device assignment may change.
func TestFaultDeviceReexecution(t *testing.T) {
	clean, cleanU := faultRun(t, Dynamic, -1)
	faulty, faultyU := faultRun(t, Dynamic, 2)
	wantBitwise(t, "device death", cleanU, faultyU)

	snap := faulty.Stats.Snapshot()
	if snap.Injected != 1 {
		t.Fatalf("Injected = %d, want 1", snap.Injected)
	}
	if snap.Retries != 3 { // 2 flaky attempts + the one that lands
		t.Fatalf("Retries = %d, want 3", snap.Retries)
	}
	if !snap.Degraded || !faulty.Degraded() {
		t.Fatal("degraded mode not flagged")
	}
	// Backoff doubles from the 100 µs default over the three attempts.
	if got, want := faulty.BackoffVirtual(), 1e-4+2e-4+4e-4; math.Abs(got-want) > 1e-12 {
		t.Fatalf("backoff = %v, want %v", got, want)
	}

	rep := faulty.Report()
	if !rep[1].Faulted || rep[0].Faulted {
		t.Fatalf("fault flags wrong: %+v", rep)
	}
	// The GPU stops at the kernels it completed plus the one failed
	// launch; the CPU absorbs everything else.
	completed := int64(0)
	for _, e := range faulty.TraceEvents() {
		if e.Device == rep[1].Name {
			completed++
		}
	}
	if completed == 0 || rep[1].Kernels != completed+1 {
		t.Fatalf("dead device charged %d kernels, completed %d", rep[1].Kernels, completed)
	}
	if rep[0].Zones <= clean.Report()[0].Zones {
		t.Fatal("healthy device did not absorb the dead device's work")
	}
	if faulty.VirtualTime() <= clean.VirtualTime() {
		t.Fatalf("fault run not slower: %v vs %v", faulty.VirtualTime(), clean.VirtualTime())
	}
}

// TestFaultPlansExcludeDeadDevice: the kernels of the phase the death
// fires in migrate, and no later plan of any policy schedules the dead
// device.
func TestFaultPlansExcludeDeadDevice(t *testing.T) {
	for _, pol := range []Policy{Static, Dynamic, Routed} {
		ex, _ := faultRun(t, pol, 1)
		dead := ex.Devices[1].Spec.Name
		before := 0
		for _, e := range ex.TraceEvents() {
			if e.Device != dead {
				continue
			}
			if e.Phase >= 1 {
				t.Fatalf("%v plan scheduled the dead device: %+v", pol, e)
			}
			before++
		}
		if before == 0 {
			t.Errorf("%v: device never ran before its death", pol)
		}
	}
}

// TestFaultLastDeviceKeepsRunning: with no healthy device left the
// executor must keep planning (degraded but correct) rather than stall.
func TestFaultLastDeviceKeepsRunning(t *testing.T) {
	plain := runBlast(t, 32, 2, nil)
	ex := MustExecutor(Static, MustDevice(SpecHostCPU(2)))
	ex.Chaos = &ChaosSchedule{Events: []ChaosEvent{{Kind: DeviceDeath, Device: 0, Phase: 1}}}
	faulty := runBlast(t, 32, 2, func(s *core.Solver) { ex.Attach(s) })
	if !ex.Degraded() {
		t.Fatal("death never fired")
	}
	wantBitwise(t, "single-device death", plain, faulty)
}

// TestFaultResetClocks: ResetClocks must clear fault state so the
// executor can be reused for a fresh measurement.
func TestFaultResetClocks(t *testing.T) {
	ex, _ := faultRun(t, Dynamic, 1)
	if !ex.Degraded() {
		t.Fatal("death never fired")
	}
	ex.ResetClocks()
	if ex.Degraded() || ex.BackoffVirtual() != 0 {
		t.Fatal("ResetClocks kept fault state")
	}
	if snap := ex.Stats.Snapshot(); snap.Injected != 0 || snap.Retries != 0 {
		t.Fatalf("counters survived reset: %+v", snap)
	}
	for _, r := range ex.Report() {
		if r.Faulted {
			t.Fatal("device still marked faulted after reset")
		}
	}
}

// Routed must match the plain solver bitwise in the fault-free case too,
// and accumulate virtual time like the other policies.
func TestRoutedMatchesPlainSolver(t *testing.T) {
	plain := runBlast(t, 32, 4, nil)
	ex := MustExecutor(Routed, MustDevice(SpecHostCPU(2)), MustDevice(SpecK20GPU()))
	routed := runBlast(t, 32, 4, func(s *core.Solver) { ex.Attach(s) })
	wantBitwise(t, "routed", plain, routed)
	if ex.VirtualTime() <= 0 {
		t.Error("no virtual time")
	}
	if ex.Degraded() {
		t.Error("healthy routed run reported degraded")
	}
}

func TestSpecValidationTypedErrors(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		field string
	}{
		{"zero rate", Spec{Name: "d", Workers: 1}, "ZoneRate"},
		{"negative rate", Spec{Name: "d", ZoneRate: -1, Workers: 1}, "ZoneRate"},
		{"nan rate", Spec{Name: "d", ZoneRate: math.NaN(), Workers: 1}, "ZoneRate"},
		{"inf rate", Spec{Name: "d", ZoneRate: math.Inf(1), Workers: 1}, "ZoneRate"},
		{"negative launch", Spec{Name: "d", ZoneRate: 1e6, LaunchLatency: -1, Workers: 1}, "LaunchLatency"},
		{"negative workers", Spec{Name: "d", ZoneRate: 1e6, Workers: -2}, "Workers"},
		{"staged no bw", Spec{Name: "d", Kind: GPU, ZoneRate: 1e8, Workers: 1}, "TransferBW"},
		{"staged nan bw", Spec{Name: "d", Kind: GPU, ZoneRate: 1e8, TransferBW: math.NaN(), Workers: 1}, "TransferBW"},
		{"negative xfer lat", Spec{Name: "d", Kind: GPU, ZoneRate: 1e8, TransferBW: 1e9, TransferLatency: -1, Workers: 1}, "TransferLatency"},
	}
	for _, tc := range cases {
		_, err := NewDevice(tc.spec)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: error %v not ErrBadSpec", tc.name, err)
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %T not *SpecError", tc.name, err)
			continue
		}
		if se.Field != tc.field {
			t.Errorf("%s: field = %q, want %q", tc.name, se.Field, tc.field)
		}
	}
	// Resident GPUs need no TransferBW.
	if _, err := NewDevice(Spec{Name: "ok", Kind: GPU, ZoneRate: 1e8, Resident: true, Workers: 1}); err != nil {
		t.Errorf("resident GPU rejected: %v", err)
	}
}

func TestParseFleet(t *testing.T) {
	devs, err := ParseFleet("cpu4, k20-staged, phi, k20")
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != 4 {
		t.Fatalf("parsed %d devices", len(devs))
	}
	if devs[0].Spec.Kind != CPU || devs[0].Spec.Workers != 4 {
		t.Errorf("cpu4 = %+v", devs[0].Spec)
	}
	if !devs[1].Staged() {
		t.Error("k20-staged not staged")
	}
	if devs[3].Staged() {
		t.Error("k20 resident parsed as staged")
	}
	for _, bad := range []string{"cpu4, warp9", "", "cpu4x", "cpu8 cores", "cpu+3", "cpu-3", "cpu0", "cpu"} {
		if _, err := ParseFleet(bad); err == nil {
			t.Errorf("fleet %q accepted", bad)
		}
	}
}

func TestFingerprint(t *testing.T) {
	fp := SpecHostCPU(4).Fingerprint()
	if fp.ThroughputX <= 0 {
		t.Error("non-positive throughput multiplier")
	}
	if fp.Domain != "host" || fp.Staged {
		t.Errorf("cpu fingerprint = %+v", fp)
	}
	sfp := SpecK20GPUStaged().Fingerprint()
	if !sfp.Staged || sfp.LinkBW <= 0 {
		t.Errorf("staged fingerprint = %+v", sfp)
	}
}

// Lease mode: placements go to the least-loaded in-rotation device, a
// failed lease feeds the health model, and clean probing leases undrain.
func TestRouterLeaseRelease(t *testing.T) {
	devs := []*Device{
		MustDevice(Spec{Name: "a", ZoneRate: 4e6, Workers: 1}),
		MustDevice(Spec{Name: "b", ZoneRate: 1e6, Workers: 1}),
	}
	r := NewRouter(devs...)
	// The 4x faster device should win the first leases.
	i, ok := r.Lease(1000)
	if !ok || i != 0 {
		t.Fatalf("first lease on %d", i)
	}
	r.Release(i, 1000, false)
	// Fail it repeatedly: score collapses and the device drains.
	for k := 0; k < 4 && r.State(0).InRotation(); k++ {
		j, ok := r.Lease(1000)
		if !ok {
			t.Fatal("no capacity")
		}
		r.Release(j, 1000, j == 0)
	}
	if st := r.State(0); st != Drained && st != Probing {
		t.Fatalf("failing device state = %v, want drained/probing", st)
	}
	// Leases now land on b while a is out of rotation.
	j, ok := r.Lease(100)
	if !ok {
		t.Fatal("no capacity with one drained device")
	}
	if j == 0 && r.State(0) != Probing {
		t.Errorf("drained device leased while not probing")
	}
	// Age the router: the drained device comes up for a probe, wins a
	// token-weight trial lease, and a clean release undrains it.
	undrained := false
	for k := 0; k < 100 && !undrained; k++ {
		j, ok := r.Lease(10)
		if !ok {
			t.Fatal("no capacity")
		}
		r.Release(j, 10, false)
		undrained = j == 0 && r.State(0) == Healthy
	}
	if !undrained {
		t.Fatalf("drained device never probed back to healthy (state %v)", r.State(0))
	}
	if r.C.Probes.Load() == 0 || r.C.Undrains.Load() == 0 {
		t.Error("probe/undrain not counted")
	}
}

func TestRouterMarkDeadAndCapacity(t *testing.T) {
	devs := []*Device{
		MustDevice(Spec{Name: "a", ZoneRate: refCoreRate, Workers: 1}),
		MustDevice(Spec{Name: "b", ZoneRate: refCoreRate, Workers: 1}),
	}
	r := NewRouter(devs...)
	if c := r.EquivalentCapacity(); math.Abs(c-2) > 1e-9 {
		t.Errorf("capacity = %v, want 2", c)
	}
	r.MarkDead(0)
	if c := r.EquivalentCapacity(); math.Abs(c-1) > 1e-9 {
		t.Errorf("capacity after death = %v, want 1", c)
	}
	if _, ok := r.Lease(10); !ok {
		t.Error("live device refused lease")
	}
	r.MarkDead(1)
	if _, ok := r.Lease(10); ok {
		t.Error("dead fleet granted lease")
	}
	if r.C.Deaths.Load() != 2 {
		t.Errorf("deaths = %d", r.C.Deaths.Load())
	}
}
