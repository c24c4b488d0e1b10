package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"rhsc/internal/amr"
	"rhsc/internal/cluster"
	"rhsc/internal/core"
	"rhsc/internal/damr"
	"rhsc/internal/metrics"
	"rhsc/internal/resilience"
	"rhsc/internal/testprob"
)

// resilienceRow is one distributed scenario of E13: checkpoint overhead
// against the uncheckpointed baseline, and — for faulted runs — the cost
// and fidelity of the recovery.
type resilienceRow struct {
	Scenario           string  `json:"scenario"`
	CheckpointEvery    int     `json:"checkpoint_every"`
	FaultStep          int     `json:"fault_step,omitempty"`
	VirtualTime        float64 `json:"virtual_time_s"`
	CheckpointOverhead float64 `json:"checkpoint_overhead"`
	CheckpointBytes    int64   `json:"checkpoint_bytes"`
	Recoveries         int     `json:"recoveries"`
	Survivors          int     `json:"survivors"`
	RecomputedSteps    int     `json:"recomputed_steps"`
	RecoveryVirtual    float64 `json:"recovery_virtual_s"`
	TimeToRecoverMS    float64 `json:"time_to_recover_ms"`
	L1Rho              float64 `json:"l1_rho_vs_faultfree"`
}

// guardRow is the numerical-fault scenario: a guarded shock-tube run
// with an injected corruption, reporting the retry machinery's work.
type guardRow struct {
	Scenario  string `json:"scenario"`
	Injected  int64  `json:"injected"`
	Retries   int64  `json:"retries"`
	Fallbacks int64  `json:"fallbacks"`
	Steps     int    `json:"steps"`
	Completed bool   `json:"completed"`
}

// resilience is E13: the price of surviving faults. It measures (a) the
// virtual-time overhead of buddy checkpointing at several cadences, (b)
// time-to-recover and recomputed work when a rank dies under each
// cadence, with the L1 column certifying the recovered run still matches
// the fault-free solution to round-off, and (c) the step-retry guard
// absorbing an injected numerical fault on the shock tube.
func (s *suite) resilience() error {
	const rootBlocks = 4
	maxLevel := 2
	steps := 24
	cadences := []int{2, 4, 8}
	if s.quick {
		maxLevel = 1
		steps = 8
		cadences = []int{2, 4}
	}
	const ranks = 4
	// Off-cadence fault step (15 of 24) so every cadence leaves a
	// distinct replay window: 1, 3 and 7 steps for cadences 2, 4, 8.
	faultStep := 5 * steps / 8

	p := testprob.Blast2D
	cfg := amr.DefaultConfig(core.DefaultConfig())
	cfg.BlockN = 8
	cfg.MaxLevel = maxLevel
	cfg.RegridEvery = 4

	// Fault-free single-rank reference for the fidelity column.
	ref, err := amr.NewTree(p, rootBlocks, cfg)
	if err != nil {
		return err
	}
	for i := 0; i < steps; i++ {
		if err := ref.Step(ref.MaxDt()); err != nil {
			return err
		}
	}
	l1Rho := func(tr *amr.Tree) float64 {
		const n = 64
		sum := 0.0
		for j := 0; j < n; j++ {
			y := p.Y0 + (float64(j)+0.5)/n*(p.Y1-p.Y0)
			for i := 0; i < n; i++ {
				x := p.X0 + (float64(i)+0.5)/n*(p.X1-p.X0)
				sum += math.Abs(tr.SampleAt(x, y).Rho - ref.SampleAt(x, y).Rho)
			}
		}
		return sum / (n * n)
	}
	run := func(ckEvery int, fault *damr.RankFault) (*damr.Result, error) {
		return damr.Run(p, rootBlocks, cfg, damr.Options{
			Ranks:           ranks,
			Mode:            cluster.Async,
			Net:             cluster.Infiniband(),
			Steps:           steps,
			CheckpointEvery: ckEvery,
			Fault:           fault,
		})
	}

	base, err := run(0, nil)
	if err != nil {
		return err
	}
	rows := []resilienceRow{{
		Scenario:    "baseline",
		VirtualTime: base.VirtualTime,
		Survivors:   base.Survivors,
		L1Rho:       l1Rho(base.Tree),
	}}
	for _, ck := range cadences {
		res, err := run(ck, nil)
		if err != nil {
			return fmt.Errorf("checkpoint every %d: %w", ck, err)
		}
		rows = append(rows, resilienceRow{
			Scenario:           "checkpoint",
			CheckpointEvery:    ck,
			VirtualTime:        res.VirtualTime,
			CheckpointOverhead: res.VirtualTime/base.VirtualTime - 1,
			CheckpointBytes:    res.CheckpointBytes,
			Survivors:          res.Survivors,
			L1Rho:              l1Rho(res.Tree),
		})
	}
	for _, ck := range cadences {
		res, err := run(ck, &damr.RankFault{Rank: 1, AfterStep: faultStep})
		if err != nil {
			return fmt.Errorf("fault at ck=%d: %w", ck, err)
		}
		rows = append(rows, resilienceRow{
			Scenario:           "rank-fault",
			CheckpointEvery:    ck,
			FaultStep:          faultStep,
			VirtualTime:        res.VirtualTime,
			CheckpointOverhead: res.VirtualTime/base.VirtualTime - 1,
			CheckpointBytes:    res.CheckpointBytes,
			Recoveries:         res.Recoveries,
			Survivors:          res.Survivors,
			RecomputedSteps:    res.RecomputedSteps,
			RecoveryVirtual:    res.RecoveryVirtual,
			TimeToRecoverMS:    float64(res.RecoveryReal.Microseconds()) / 1e3,
			L1Rho:              l1Rho(res.Tree),
		})
	}

	tb := metrics.NewTable(
		fmt.Sprintf("E13: resilience on the 2-D blast L%d, %d ranks, %d steps (virtual)",
			maxLevel, ranks, steps),
		"scenario", "ck-every", "ovh%", "recov", "replayed", "recov(ms)", "L1(rho)")
	for _, r := range rows {
		tb.AddRow(r.Scenario, r.CheckpointEvery, 100*r.CheckpointOverhead,
			r.Recoveries, r.RecomputedSteps, r.TimeToRecoverMS, r.L1Rho)
	}
	fmt.Print(tb.String())
	fmt.Println("  expected shape: checkpoint overhead grows with cadence frequency;")
	fmt.Println("  a denser cadence buys a shorter replay window after the fault; the")
	fmt.Println("  L1 column stays at round-off — recovery never changes the physics.")

	// Numerical-fault scenario: the guarded shock tube absorbs an
	// injected NaN (transient) and a persistent corruption that forces
	// the first-order fallback.
	guards := []struct {
		label string
		inj   *resilience.Injector
	}{
		{"clean", nil},
		{"transient-nan", &resilience.Injector{AtStep: 3, Cell: -1}},
		{"persistent", &resilience.Injector{AtStep: 3, Count: 2, Cell: -1}},
	}
	gtb := metrics.NewTable("E13b: guarded shock tube, injected numerical faults",
		"scenario", "injected", "retries", "fallbacks", "steps", "completed")
	grows := make([]guardRow, 0, len(guards))
	for _, gc := range guards {
		gcfg := core.DefaultConfig()
		sp := testprob.Sod
		grid := sp.NewGrid(256, gcfg.Recon.Ghost())
		sol, err := core.New(grid, gcfg)
		if err != nil {
			return err
		}
		if err := sol.InitFromPrim(sp.Init); err != nil {
			return err
		}
		g := resilience.NewGuard(sol)
		g.Inject = gc.inj
		n, err := g.Advance(sp.TEnd)
		snap := g.Stats.Snapshot()
		row := guardRow{
			Scenario: gc.label, Injected: snap.Injected,
			Retries: snap.Retries, Fallbacks: snap.Fallbacks,
			Steps: n, Completed: err == nil,
		}
		grows = append(grows, row)
		gtb.AddRow(row.Scenario, row.Injected, row.Retries, row.Fallbacks, row.Steps, row.Completed)
	}
	fmt.Print(gtb.String())

	out := struct {
		Damr      []resilienceRow `json:"damr"`
		Numerical []guardRow      `json:"numerical"`
	}{rows, grows}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if s.outdir != "" {
		path := filepath.Join(s.outdir, "e13_resilience.json")
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  [json: %s]\n", path)
	} else {
		fmt.Printf("  results JSON:\n%s\n", blob)
	}

	var csvCk, csvOvh, csvReplay, csvRecovVirt []float64
	for _, r := range rows {
		if r.Scenario == "baseline" {
			continue
		}
		csvCk = append(csvCk, float64(r.CheckpointEvery))
		csvOvh = append(csvOvh, r.CheckpointOverhead)
		csvReplay = append(csvReplay, float64(r.RecomputedSteps))
		csvRecovVirt = append(csvRecovVirt, r.RecoveryVirtual)
	}
	s.writeCSV("e13_resilience.csv",
		[]string{"checkpoint_every", "checkpoint_overhead", "recomputed_steps", "recovery_virtual_s"},
		csvCk, csvOvh, csvReplay, csvRecovVirt)
	return nil
}
