package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"rhsc/internal/core"
	"rhsc/internal/eos"
	"rhsc/internal/metrics"
	"rhsc/internal/par"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/simd"
	"rhsc/internal/testprob"
)

// stepConfig is one measured configuration of E14.
type stepConfig struct {
	Name string `json:"name"`
	// Workers is the pool size for multi-worker configs (0 = serial).
	Workers int `json:"workers,omitempty"`
	// NsPerStep and NsPerZone are the median steady-state MaxDt+Step
	// wall time, total and per zone update.
	NsPerStep int64   `json:"ns_per_step"`
	NsPerZone float64 `json:"ns_per_zone"`
	// AllocsPerStep counts heap allocations per steady-state step
	// (mallocs delta over the timed window); the pipeline invariant is 0.
	AllocsPerStep int64 `json:"allocs_per_step"`
	// BaselineNsPerStep is the pre-pipeline reference on the benchmark
	// host (see docs/PERFORMANCE.md); 0 when not comparable (quick mode).
	BaselineNsPerStep int64   `json:"baseline_ns_per_step,omitempty"`
	ImprovementPct    float64 `json:"improvement_pct,omitempty"`
}

// stepBenchReport is the BENCH_step.json payload.
type stepBenchReport struct {
	Generated string `json:"generated"`
	Host      string `json:"host"`
	// GoMaxProcs and NumCPU pin the parallel capacity of the benchmark
	// host so ns/zone numbers are comparable across runs.
	GoMaxProcs int `json:"gomaxprocs"`
	NumCPU     int `json:"numcpu"`
	// RowKernels names the kernel paths the host ran, as
	// "riemann=P recon=P": P is "avx2" for the vector EvalRow and HLLC
	// combine (riemann) and the vector PLM-MC edge body (recon), "go" for
	// the Go loops. One CPU switch, simd.AVX2, selects both.
	RowKernels string `json:"row_kernels"`
	// TileJ and TileK record the cache-blocking geometry of the tiled
	// sweep engine used for the run (see docs/PERFORMANCE.md).
	TileJ   int          `json:"tile_j"`
	TileK   int          `json:"tile_k"`
	N       int          `json:"n"`
	Zones   int          `json:"zones"`
	Steps   int          `json:"steps_per_sample"`
	Configs []stepConfig `json:"configs"`
}

// Pre-pipeline single-thread references for the 48^3 blast on the CI
// host class (medians, from before the hand-fused kernels these two row
// names once selected).
var stepBaselines = map[string]int64{
	"blast3d-fused":        212_000_000,
	"blast3d-pcmhll-fused": 284_000_000,
}

// stepbench is E14: steady-state time-step cost of the single-pass
// pipeline — in-sweep CFL reduction, pooled row scratch, one face-flux
// kernel — over the scheme matrix, as ns/zone-update and allocations per
// step, against the pre-pipeline baselines. Writes BENCH_step.json into
// the current directory (the CI benchmark job runs it from the repo root
// and archives the file).
func (s *suite) stepbench() error {
	// Load the gate baseline first: it may be the very BENCH_step.json
	// this run overwrites.
	var gateBase *stepBenchReport
	if s.gate != "" {
		blob, err := os.ReadFile(s.gate)
		if err != nil {
			return fmt.Errorf("stepbench gate: %w", err)
		}
		gateBase = new(stepBenchReport)
		if err := json.Unmarshal(blob, gateBase); err != nil {
			return fmt.Errorf("stepbench gate: %s: %w", s.gate, err)
		}
	}
	n, steps := 48, 3
	if s.quick {
		n, steps = 24, 2
	}
	// The multi-worker config keeps the stable name "blast3d-fused-parN"
	// so the perf gate can match it across hosts; the actual pool size is
	// recorded in the workers field.
	parN := runtime.NumCPU()
	if parN < 2 {
		parN = 2
	}
	type cfgCase struct {
		name    string
		workers int
		mut     func(*core.Config)
	}
	// The first three names date from the hand-fused kernels (PLM-MC+HLLC
	// and PCM+HLL on the Γ-law gas) and are kept so the gate matches
	// baselines across that change.
	cases := []cfgCase{
		{"blast3d-fused", 0, nil},
		{"blast3d-fused-parN", parN, nil},
		{"blast3d-pcmhll-fused", 0, func(c *core.Config) {
			c.Recon = recon.PCM{}
			c.Riemann = riemann.HLL{}
		}},
		{"blast3d-ppm-hll", 0, func(c *core.Config) {
			c.Recon = recon.PPM{}
			c.Riemann = riemann.HLL{}
		}},
		{"blast3d-weno5-hllc", 0, func(c *core.Config) { c.Recon = recon.WENO5{} }},
		{"blast3d-plm-hllc-taub", 0, func(c *core.Config) { c.EOS = eos.TaubMathews{} }},
	}

	prob := testprob.Blast3D
	rep := stepBenchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Host:       fmt.Sprintf("%s/%s, %d core(s)", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		RowKernels: "riemann=" + simd.Path() + " recon=" + simd.Path(),
		N:          n,
		Steps:      steps,
	}
	tb := metrics.NewTable(
		fmt.Sprintf("E14: steady-state step cost, %d^3 blast, median %d-step sample", n, steps),
		"config", "ns/step", "ns/zone", "allocs/step", "vs baseline")

	for _, tc := range cases {
		cfg := core.DefaultConfig()
		if tc.mut != nil {
			tc.mut(&cfg)
		}
		if tc.workers > 0 {
			cfg.Pool = par.NewPool(tc.workers)
		}
		g := prob.NewGrid(n, cfg.Recon.Ghost())
		sol, err := core.New(g, cfg)
		if err != nil {
			return err
		}
		if err := sol.InitFromPrim(prob.Init); err != nil {
			return err
		}
		sol.RecoverPrimitives()
		zones := g.Nx * g.Ny * g.Nz
		rep.Zones = zones
		rep.TileJ, rep.TileK = sol.TileSizes()
		// Warm the scratch free list, the CFL cache, and the heap.
		for i := 0; i < 2; i++ {
			if err := sol.Step(sol.MaxDt()); err != nil {
				return err
			}
		}
		// Take the median over several samples: single 3-step samples
		// wobble ±15% on shared CI hosts, which is exactly the gate
		// tolerance — the median keeps the gate signal, not the noise.
		nSamples := 5
		if s.quick {
			nSamples = 3
		}
		samples := make([]int64, 0, nSamples)
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		for sample := 0; sample < nSamples; sample++ {
			start := time.Now()
			for i := 0; i < steps; i++ {
				if err := sol.Step(sol.MaxDt()); err != nil {
					return err
				}
			}
			samples = append(samples, time.Since(start).Nanoseconds()/int64(steps))
		}
		runtime.ReadMemStats(&ms1)
		sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })

		c := stepConfig{
			Name:          tc.name,
			Workers:       tc.workers,
			NsPerStep:     samples[len(samples)/2],
			AllocsPerStep: int64(ms1.Mallocs-ms0.Mallocs) / int64(nSamples*steps),
		}
		c.NsPerZone = float64(c.NsPerStep) / float64(zones)
		vs := "-"
		if base, ok := stepBaselines[tc.name]; ok && !s.quick {
			c.BaselineNsPerStep = base
			c.ImprovementPct = 100 * (1 - float64(c.NsPerStep)/float64(base))
			vs = fmt.Sprintf("%+.1f%%", -c.ImprovementPct)
		}
		tb.AddRow(c.Name, c.NsPerStep, fmt.Sprintf("%.0f", c.NsPerZone), c.AllocsPerStep, vs)
		rep.Configs = append(rep.Configs, c)
	}
	fmt.Print(tb.String())

	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_step.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  [json: BENCH_step.json]")
	if gateBase != nil {
		return stepGate(&rep, gateBase)
	}
	return nil
}

// stepGateTolPct is the per-config ns/zone regression tolerance of the
// perf gate: generous enough to absorb CI host noise, tight enough to
// catch a real pipeline regression.
const stepGateTolPct = 15.0

// stepGate compares a freshly measured report against a committed
// baseline BENCH_step.json (the -gate flag). It fails when any config
// present in both regresses by more than stepGateTolPct in ns/zone, when
// any serial config allocates in steady state (the alloc invariant is
// exact; pool-backed configs pay a few scheduler allocations and are
// gated on time only), when a baseline config is missing from the run —
// a renamed or dropped row would otherwise leave the gate unguarded — and
// when nothing was compared at all. Configs without a baseline entry —
// e.g. a config added in the same change — are reported and skipped.
func stepGate(rep, base *stepBenchReport) error {
	ref := make(map[string]stepConfig, len(base.Configs))
	for _, c := range base.Configs {
		ref[c.Name] = c
	}
	var fails []string
	compared := 0
	for _, c := range rep.Configs {
		if c.Workers == 0 && c.AllocsPerStep > 0 {
			fails = append(fails, fmt.Sprintf("%s: %d allocs/step, want 0", c.Name, c.AllocsPerStep))
		}
		b, ok := ref[c.Name]
		delete(ref, c.Name)
		if !ok || b.NsPerZone <= 0 {
			fmt.Printf("  [gate: %-22s no baseline entry, skipped]\n", c.Name)
			continue
		}
		compared++
		pct := 100 * (c.NsPerZone/b.NsPerZone - 1)
		if pct > stepGateTolPct {
			fails = append(fails, fmt.Sprintf(
				"%s: %.0f ns/zone vs baseline %.0f (%+.1f%%, tolerance %.0f%%)",
				c.Name, c.NsPerZone, b.NsPerZone, pct, stepGateTolPct))
		} else {
			fmt.Printf("  [gate: %-22s %+.1f%% vs baseline, ok]\n", c.Name, pct)
		}
	}
	for _, b := range base.Configs {
		if _, missing := ref[b.Name]; missing {
			fails = append(fails, fmt.Sprintf("%s: in the baseline but not measured by this run", b.Name))
		}
	}
	if compared == 0 {
		fails = append(fails, "no measured config matches a baseline entry")
	}
	if len(fails) > 0 {
		return fmt.Errorf("stepbench gate failed:\n  %s", strings.Join(fails, "\n  "))
	}
	fmt.Println("  [gate: passed]")
	return nil
}
