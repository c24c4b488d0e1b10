package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rhsc/internal/core"
	"rhsc/internal/metrics"
	"rhsc/internal/resilience"
	"rhsc/internal/testprob"
)

// failsafeRow is one guarded 2-D blast run of E15: a deterministic
// in-stage corruption absorbed either by the global snapshot/retry
// machinery or by the cell-local a posteriori repair
// (docs/RESILIENCE.md §1).
type failsafeRow struct {
	Scenario      string  `json:"scenario"`
	Mode          string  `json:"mode"` // global-retry | local-repair
	Steps         int     `json:"steps"`
	WallMS        float64 `json:"wall_ms"`
	ZoneUpdates   int64   `json:"zone_updates"`
	FallbackZones int64   `json:"fallback_zones"`
	Injected      int64   `json:"injected"`
	Retries       int64   `json:"retries"`
	Fallbacks     int64   `json:"fallbacks"`
	Troubled      int64   `json:"troubled"`
	Repaired      int64   `json:"repaired"`
	Demotions     int64   `json:"demotions"`
}

// failsafe is E15: the price of absorbing a numerical fault. The same
// deterministic mid-stage poison is fed to a guarded blast run twice —
// once with the fail-safe disabled, so the guard restores its snapshot
// and retries (engaging the global first-order fallback), and once with
// the fail-safe on, so the detector flags the corrupt cells and the
// flux-replacement repair patches them in place. The comparison
// currency is FallbackZones: zone updates computed at the dissipative
// fallback order, whole grids per retried stage on the global path but
// only the flagged cells on the local path.
func (s *suite) failsafe() error {
	n := 128
	tEnd := 0.15
	if s.quick {
		n = 48
		tEnd = 0.08
	}
	p := testprob.Blast2D

	scenarios := []struct {
		label string
		inj   func() *resilience.Injector
	}{
		{"clean", func() *resilience.Injector { return nil }},
		{"transient", func() *resilience.Injector {
			return &resilience.Injector{AtStep: 3, Cell: -1, InStage: true}
		}},
		// Count=2 outlasts the global path's dt-halving retry, forcing the
		// first-order fallback; the local path just repairs twice.
		{"repeated", func() *resilience.Injector {
			return &resilience.Injector{AtStep: 3, Count: 2, Cell: -1, InStage: true}
		}},
	}

	run := func(scenario string, inj *resilience.Injector, failSafe bool) (failsafeRow, error) {
		cfg := core.DefaultConfig()
		cfg.FailSafe = failSafe
		g := p.NewGrid(n, cfg.Recon.Ghost())
		sol, err := core.New(g, cfg)
		if err != nil {
			return failsafeRow{}, err
		}
		if err := sol.InitFromPrim(p.Init); err != nil {
			return failsafeRow{}, err
		}
		guard := resilience.NewGuard(sol)
		guard.Inject = inj
		mode := "global-retry"
		if failSafe {
			mode = "local-repair"
		}
		t0 := time.Now()
		steps, err := guard.Advance(tEnd)
		if err != nil {
			return failsafeRow{}, fmt.Errorf("%s/%s: %w", scenario, mode, err)
		}
		wall := time.Since(t0)
		snap := guard.Stats.Snapshot()
		return failsafeRow{
			Scenario:      scenario,
			Mode:          mode,
			Steps:         steps,
			WallMS:        float64(wall.Microseconds()) / 1e3,
			ZoneUpdates:   sol.St.ZoneUpdates.Load(),
			FallbackZones: snap.FallbackZones,
			Injected:      snap.Injected,
			Retries:       snap.Retries,
			Fallbacks:     snap.Fallbacks,
			Troubled:      snap.Troubled,
			Repaired:      snap.Repaired,
			Demotions:     snap.Demotions,
		}, nil
	}

	var rows []failsafeRow
	tb := metrics.NewTable(
		fmt.Sprintf("E15: fail-safe local repair vs global retry, 2-D blast %d^2 to t=%.2f", n, tEnd),
		"scenario", "mode", "steps", "wall(ms)", "zone-upd", "fb-zones", "retries", "troubled", "repaired")
	for _, sc := range scenarios {
		for _, fs := range []bool{false, true} {
			row, err := run(sc.label, sc.inj(), fs)
			if err != nil {
				return err
			}
			rows = append(rows, row)
			tb.AddRow(row.Scenario, row.Mode, row.Steps, row.WallMS,
				row.ZoneUpdates, row.FallbackZones, row.Retries, row.Troubled, row.Repaired)
		}
	}
	fmt.Print(tb.String())

	// The acceptance ratio the fail-safe tests pin at >= 2x (in practice
	// orders of magnitude): fallback-order work per absorbed fault.
	for _, sc := range scenarios {
		var g, l *failsafeRow
		for i := range rows {
			if rows[i].Scenario != sc.label {
				continue
			}
			if rows[i].Mode == "global-retry" {
				g = &rows[i]
			} else {
				l = &rows[i]
			}
		}
		if g == nil || l == nil || g.FallbackZones == 0 {
			continue
		}
		ratio := float64(g.FallbackZones) / float64(maxI64(l.FallbackZones, 1))
		fmt.Printf("  %-10s fallback-zone ratio global/local = %.0fx (%d vs %d)\n",
			sc.label, ratio, g.FallbackZones, l.FallbackZones)
	}
	fmt.Println("  expected shape: the clean pair commits identical step counts and scheme-")
	fmt.Println("  order zone updates (at high resolution the detector may organically flag")
	fmt.Println("  a handful of cells at the strongest front — that localised limiting is")
	fmt.Println("  the MOOD design); under faults the local path still commits every step")
	fmt.Println("  at scheme order, paying only the flagged cells in fallback zones, while")
	fmt.Println("  the global path re-runs whole grids at first order.")

	blob, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if s.outdir != "" {
		path := filepath.Join(s.outdir, "e15_failsafe.json")
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  [json: %s]\n", path)
	} else {
		fmt.Printf("  results JSON:\n%s\n", blob)
	}

	var csvMode, csvFB, csvZU, csvWall []float64
	for _, r := range rows {
		m := 0.0
		if r.Mode == "local-repair" {
			m = 1
		}
		csvMode = append(csvMode, m)
		csvFB = append(csvFB, float64(r.FallbackZones))
		csvZU = append(csvZU, float64(r.ZoneUpdates))
		csvWall = append(csvWall, r.WallMS)
	}
	s.writeCSV("e15_failsafe.csv",
		[]string{"local_repair", "fallback_zones", "zone_updates", "wall_ms"},
		csvMode, csvFB, csvZU, csvWall)
	return nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
