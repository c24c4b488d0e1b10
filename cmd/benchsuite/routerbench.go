package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"rhsc/internal/core"
	"rhsc/internal/hetero"
	"rhsc/internal/metrics"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// chaosRun advances the 2-D blast under a chaos schedule and returns the
// executor plus the final density field (for the bitwise check).
func chaosRun(n, steps int, pol hetero.Policy, chaos *hetero.ChaosSchedule,
	specs ...hetero.Spec) (*hetero.Executor, []float64, error) {
	p := testprob.Blast2D
	g := p.NewGrid(n, 2)
	s, err := core.New(g, core.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	devs := make([]*hetero.Device, len(specs))
	for i, sp := range specs {
		if devs[i], err = hetero.NewDevice(sp); err != nil {
			return nil, nil, err
		}
	}
	ex, err := hetero.NewExecutor(pol, devs...)
	if err != nil {
		return nil, nil, err
	}
	ex.Chaos = chaos
	ex.Attach(s)
	s.InitFromPrim(p.Init)
	for i := 0; i < steps; i++ {
		if err := s.Step(s.MaxDt()); err != nil {
			return nil, nil, err
		}
	}
	field := make([]float64, g.NCells())
	copy(field, g.U.Comp[state.ID])
	return ex, field, nil
}

// routerScenario is one static-vs-routed comparison in BENCH_hetero.json.
type routerScenario struct {
	StaticMs float64                `json:"static_ms"`
	RoutedMs float64                `json:"routed_ms"`
	Speedup  float64                `json:"speedup"`
	Bitwise  bool                   `json:"bitwise_identical"`
	Health   []hetero.DeviceHealth  `json:"health"`
	Counters metrics.RouterSnapshot `json:"counters"`
}

// heteroBenchReport is the BENCH_hetero.json payload.
type heteroBenchReport struct {
	Generated string         `json:"generated"`
	Host      string         `json:"host"`
	Skewed    routerScenario `json:"skewed_fleet"`
	Faulty    routerScenario `json:"faulty_fleet"`
}

// compareScenario runs the same chaotic workload under the static and the
// routed planner and checks both against the fault-free reference field.
func compareScenario(n, steps int, chaos *hetero.ChaosSchedule, ref []float64,
	specs ...hetero.Spec) (routerScenario, error) {
	exS, fieldS, err := chaosRun(n, steps, hetero.Static, chaos, specs...)
	if err != nil {
		return routerScenario{}, err
	}
	exR, fieldR, err := chaosRun(n, steps, hetero.Routed, chaos, specs...)
	if err != nil {
		return routerScenario{}, err
	}
	sc := routerScenario{
		StaticMs: exS.VirtualTime() * 1e3,
		RoutedMs: exR.VirtualTime() * 1e3,
		Speedup:  exS.VirtualTime() / exR.VirtualTime(),
		Bitwise:  true,
		Health:   exR.Router().HealthReport(),
		Counters: exR.Router().C.Snapshot(),
	}
	for i := range ref {
		if fieldS[i] != ref[i] || fieldR[i] != ref[i] {
			sc.Bitwise = false
			break
		}
	}
	return sc, nil
}

// heteroBench is E17: the health-scored dynamic router against the
// static planner on hostile fleets. Two scenarios, both deterministic
// (virtual clocks, phase-keyed chaos):
//
//   - skewed: one device's observed latency is 8x its nominal spec for
//     the whole run — the static planner keeps feeding it a nominal
//     share, the router drains the straggler and redistributes;
//   - faulty: a mid-run fail-stop death plus a flapping device — both
//     planners survive (reroute is policy-independent), but the router
//     also stops planning onto the flapper while it is sick.
//
// Writes BENCH_hetero.json; errors if the routed makespan does not beat
// the static one or any run is not bitwise-identical to the fault-free
// reference.
func (s *suite) heteroBench() error {
	n, steps := 128, 6
	if s.quick {
		n, steps = 64, 4
	}
	fleet := []hetero.Spec{hetero.SpecHostCPU(4), hetero.SpecHostCPU(4), hetero.SpecK20GPU()}

	// Fault-free reference field (any policy; plans never change numerics).
	_, ref, err := chaosRun(n, steps, hetero.Static, nil, fleet...)
	if err != nil {
		return err
	}

	skewed, err := compareScenario(n, steps, &hetero.ChaosSchedule{Events: []hetero.ChaosEvent{
		{Kind: hetero.LatencySpike, Device: 1, Phase: 0, Factor: 8},
	}}, ref, fleet...)
	if err != nil {
		return err
	}

	faulty, err := compareScenario(n, steps, &hetero.ChaosSchedule{Events: []hetero.ChaosEvent{
		{Kind: hetero.DeviceDeath, Device: 2, Phase: 3},
		{Kind: hetero.LatencyFlap, Device: 1, Phase: 1, Factor: 8, Period: 2},
	}}, ref, fleet...)
	if err != nil {
		return err
	}

	tb := metrics.NewTable(
		fmt.Sprintf("E17: dynamic router vs static planner, %d^2 blast, %d steps (virtual)", n, steps),
		"fleet", "static(ms)", "routed(ms)", "speedup", "bitwise")
	tb.AddRow("skewed (8x straggler)", skewed.StaticMs, skewed.RoutedMs, skewed.Speedup, boolMark(skewed.Bitwise))
	tb.AddRow("faulty (death+flap)", faulty.StaticMs, faulty.RoutedMs, faulty.Speedup, boolMark(faulty.Bitwise))
	fmt.Print(tb.String())
	fmt.Println("  expected shape: the router drains the straggler/flapper after a few")
	fmt.Println("  observed phases and redistributes its share, so the routed makespan")
	fmt.Println("  beats static on both fleets; every run is bitwise-identical to the")
	fmt.Println("  fault-free reference.")

	rep := heteroBenchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Host:      fmt.Sprintf("%s/%s, %d core(s)", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Skewed:    skewed,
		Faulty:    faulty,
	}
	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_hetero.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  [json: BENCH_hetero.json]")

	if !skewed.Bitwise || !faulty.Bitwise {
		return fmt.Errorf("E17: chaos run diverged from the fault-free reference")
	}
	if skewed.Speedup <= 1 {
		return fmt.Errorf("E17: routed (%.2f ms) did not beat static (%.2f ms) on the skewed fleet",
			skewed.RoutedMs, skewed.StaticMs)
	}
	if faulty.Speedup <= 1 {
		return fmt.Errorf("E17: routed (%.2f ms) did not beat static (%.2f ms) on the faulty fleet",
			faulty.RoutedMs, faulty.StaticMs)
	}
	return nil
}

func boolMark(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}
