package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"rhsc/internal/amr"
	"rhsc/internal/cluster"
	"rhsc/internal/core"
	"rhsc/internal/damr"
	"rhsc/internal/metrics"
	"rhsc/internal/testprob"
)

// netRow is one chaos schedule of E19: the reliable transport driving
// the distributed blast over a fabric with the given fault rates.
type netRow struct {
	Scenario     string  `json:"scenario"`
	DropRate     float64 `json:"drop_rate"`
	DupRate      float64 `json:"dup_rate,omitempty"`
	CorruptRate  float64 `json:"corrupt_rate,omitempty"`
	WallMS       float64 `json:"wall_ms"`
	Sent         int64   `json:"sent"`
	SentBytes    int64   `json:"sent_bytes"`
	Retransmits  int64   `json:"retransmits"`
	ChaosDropped int64   `json:"chaos_dropped"`
	CrcRejected  int64   `json:"crc_rejected"`
	// RetransmitOverhead is extra deliveries per application frame.
	RetransmitOverhead float64 `json:"retransmit_overhead"`
	// GoodputMBs is application payload over wall-clock — the rate the
	// physics actually advanced at, all repair traffic excluded.
	GoodputMBs float64 `json:"goodput_mb_s"`
	Recoveries int     `json:"recoveries"`
	L1Rho      float64 `json:"l1_rho_vs_clean"`
}

// netBenchReport is the BENCH_net.json payload (E19).
type netBenchReport struct {
	Experiment string   `json:"experiment"`
	Ranks      int      `json:"ranks"`
	Steps      int      `json:"steps"`
	Rows       []netRow `json:"rows"`
}

// netChaos is E19: reliable messaging over a lossy fabric. It sweeps
// the chaos drop rate over the distributed blast and reports goodput
// and retransmit overhead, certifying at every point that the masked
// schedule left the physics bitwise at the clean answer (the L1 column
// must sit at round-off and no recovery may fire).
func (s *suite) netChaos() error {
	const rootBlocks = 4
	ranks, steps, maxLevel := 4, 12, 2
	if s.quick {
		ranks, steps, maxLevel = 2, 8, 1
	}
	drops := []float64{0, 0.05, 0.1, 0.2, 0.3}
	if s.quick {
		drops = []float64{0, 0.1, 0.2}
	}

	p := testprob.Blast2D
	cfg := amr.DefaultConfig(core.DefaultConfig())
	cfg.BlockN = 8
	cfg.MaxLevel = maxLevel
	cfg.RegridEvery = 4

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

	run := func(label string, spec *cluster.ChaosSpec) (netRow, error) {
		t0 := time.Now()
		res, err := damr.Run(p, rootBlocks, cfg, damr.Options{
			Ranks: ranks,
			Mode:  cluster.Async,
			Net:   cluster.Infiniband(),
			Steps: steps,
			Transport: &cluster.TransportConfig{
				Reliable: true,
				Chaos:    spec,
				// The RTO sits above a compute phase so the clean run is
				// (nearly) retransmit-free and the overhead column isolates
				// genuine loss repair.
				RTO: 10 * time.Millisecond,
			},
		})
		if err != nil {
			return netRow{}, err
		}
		wall := time.Since(t0)
		row := netRow{
			Scenario:   label,
			WallMS:     float64(wall.Microseconds()) / 1e3,
			Recoveries: res.Recoveries,
			L1Rho:      l1Rho(res.Tree),
		}
		if spec != nil {
			row.DropRate = spec.Drop
			row.DupRate = spec.Duplicate
			row.CorruptRate = spec.Corrupt
		}
		if res.Net != nil {
			row.Sent = res.Net.Sent
			row.SentBytes = res.Net.SentBytes
			row.Retransmits = res.Net.Retransmits
			row.ChaosDropped = res.Net.ChaosDropped
			row.CrcRejected = res.Net.CrcRejected
			if res.Net.Sent > 0 {
				row.RetransmitOverhead = float64(res.Net.Retransmits) / float64(res.Net.Sent)
			}
			row.GoodputMBs = float64(res.Net.SentBytes) / 1e6 / wall.Seconds()
		}
		if row.Recoveries != 0 {
			return row, fmt.Errorf("netchaos %s: masked schedule triggered %d recoveries", label, row.Recoveries)
		}
		if row.L1Rho > 1e-12 {
			return row, fmt.Errorf("netchaos %s: physics diverged under masked chaos (L1=%.3e)", label, row.L1Rho)
		}
		return row, nil
	}

	var rows []netRow
	for _, d := range drops {
		var spec *cluster.ChaosSpec
		label := "clean"
		if d > 0 {
			label = fmt.Sprintf("drop-%g", d)
			spec = &cluster.ChaosSpec{Seed: 19, Drop: d}
		}
		row, err := run(label, spec)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	// One mixed schedule: drops, duplicates, delays and corruptions at
	// once — the full harness the chaos tests run under.
	mixed, err := run("mixed", &cluster.ChaosSpec{
		Seed: 19, Drop: 0.1, Duplicate: 0.1, Delay: 0.1, Corrupt: 0.05,
	})
	if err != nil {
		return err
	}
	rows = append(rows, mixed)

	tb := metrics.NewTable(
		fmt.Sprintf("E19: reliable transport under chaos, 2-D blast L%d, %d ranks, %d steps",
			maxLevel, ranks, steps),
		"scenario", "drop", "wall(ms)", "sent", "retx", "retx-ovh%", "goodput(MB/s)", "L1(rho)")
	for _, r := range rows {
		tb.AddRow(r.Scenario, r.DropRate, r.WallMS, r.Sent, r.Retransmits,
			100*r.RetransmitOverhead, r.GoodputMBs, r.L1Rho)
	}
	fmt.Print(tb.String())
	fmt.Println("  expected shape: retransmit overhead rises roughly in proportion to the")
	fmt.Println("  drop rate while goodput falls; the L1 column stays at round-off at every")
	fmt.Println("  point — a masked fault schedule never changes the physics.")

	report := netBenchReport{Experiment: "E19-netchaos", Ranks: ranks, Steps: steps, Rows: rows}
	blob, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_net.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  [json: BENCH_net.json]")

	drCols := make([]float64, len(rows))
	retx := make([]float64, len(rows))
	goodput := make([]float64, len(rows))
	for i, r := range rows {
		drCols[i] = r.DropRate
		retx[i] = r.RetransmitOverhead
		goodput[i] = r.GoodputMBs
	}
	s.writeCSV("e19_netchaos.csv",
		[]string{"drop_rate", "retransmit_overhead", "goodput_mb_s"},
		drCols, retx, goodput)
	return nil
}
