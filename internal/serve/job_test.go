package serve

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"rhsc"
)

// Admission must never under-charge: a run too long for an int64 costs
// math.MaxInt64, not the one step an overflowed conversion clamped to,
// an AMR root grid is bounded as N is before it is charged, and an AMR
// charge covers the zone-updates the run makes.
func TestJobSpecCostBounds(t *testing.T) {
	sod := func(tEnd float64) JobSpec { return JobSpec{Problem: "sod", N: 128, TEnd: tEnd} }
	for _, c := range []struct {
		name    string
		spec    JobSpec
		invalid string // substring of the Validate error; empty when valid
		cost    int64  // expected Cost of a valid spec
	}{
		{name: "sod tend 1", spec: sod(1), cost: 128 * 320 * 2},
		{name: "sod tend 1e17 saturates", spec: sod(1e17), cost: math.MaxInt64},
		{name: "sod tend 1e17 step cap", spec: JobSpec{Problem: "sod", N: 128, TEnd: 1e17, MaxSteps: 10}, cost: 128 * 10 * 2},
		// AMR: the root grid refined to max_level (default 2) on every
		// cell, stepping on the finest Δx.
		{name: "amr defaults", spec: JobSpec{Problem: "sod", AMR: true}, cost: 512 * 512 * 2},
		{name: "amr 256·16", spec: JobSpec{Problem: "sod", AMR: true, RootBlocks: 256, BlockN: 16}, cost: 16384 * 16384 * 2},
		{name: "amr 2^31·2^31", spec: JobSpec{Problem: "sod", AMR: true, RootBlocks: 1 << 31, BlockN: 1 << 31}, invalid: "root_blocks"},
		{name: "amr root_blocks 3e6", spec: JobSpec{Problem: "sod", AMR: true, RootBlocks: 3e6}, invalid: "root_blocks"},
		{name: "amr 257·16", spec: JobSpec{Problem: "sod", AMR: true, RootBlocks: 257, BlockN: 16}, invalid: "root_blocks"},
		{name: "amr negative block_n", spec: JobSpec{Problem: "sod", AMR: true, BlockN: -16}, invalid: "root_blocks"},
	} {
		err := c.spec.Validate()
		if c.invalid != "" {
			if err == nil || !strings.Contains(err.Error(), c.invalid) {
				t.Errorf("%s: Validate = %v, want an error naming %s", c.name, err, c.invalid)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Validate = %v", c.name, err)
			continue
		}
		if got, err := c.spec.Cost(); err != nil || got != c.cost {
			t.Errorf("%s: Cost = %d, %v; want %d", c.name, got, err, c.cost)
		}
	}
	// An AMR charge must bound what the run uses, the zone-updates
	// NewAMRSim and RunTo report: a 1-D tree refined three levels and a
	// 2-D blast.
	for _, sp := range []JobSpec{
		{Problem: "sod", AMR: true, RootBlocks: 16, BlockN: 16, MaxLevel: 3},
		{Problem: "blast2d", AMR: true, RootBlocks: 4, BlockN: 8, MaxLevel: 2, TEnd: 0.05},
	} {
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		cost, err := sp.Cost()
		if err != nil {
			t.Fatal(err)
		}
		sim, err := rhsc.NewAMRSim(sp.options(), *sp.amrOptions())
		if err != nil {
			t.Fatal(err)
		}
		tEnd := sp.TEnd
		if tEnd <= 0 {
			tEnd = sim.Problem.TEnd
		}
		if err := sim.RunTo(tEnd); err != nil {
			t.Fatal(err)
		}
		_, _, _, used := sim.Stats()
		t.Logf("%s amr %d·%d level %d: charged %d, used %d", sp.Problem, sp.RootBlocks, sp.BlockN,
			sp.MaxLevel, cost, used)
		if cost < used {
			t.Errorf("%s amr %d·%d level %d: charged %d zone-updates, the run used %d",
				sp.Problem, sp.RootBlocks, sp.BlockN, sp.MaxLevel, cost, used)
		}
	}
}

// FuzzJobSpec decodes arbitrary JSON into a JobSpec as the HTTP API
// does, validates it and charges it: nothing may panic, and a valid spec
// costs at least one zone-update.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"problem":"sod","n":128,"tend":1e17}`,
		`{"problem":"sod","amr":true,"root_blocks":2147483648,"block_n":2147483648}`,
		`{"problem":"blast2d","amr":true,"root_blocks":3000000,"max_level":6}`,
		`{"problem":"blast3d","n":4096,"cfl":1e-300,"integrator":"rk3"}`,
		`{"problem":"kh2d","n":1,"tend":5e-324,"max_steps":9223372036854775807}`,
		`{"problem":"sod","amr":true,"root_blocks":256,"block_n":16,"max_level":6,"tend":1e300}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp JobSpec
		if json.Unmarshal(data, &sp) != nil || sp.Validate() != nil {
			return
		}
		cost, err := sp.Cost()
		if err != nil {
			t.Fatalf("valid spec %s: Cost: %v", data, err)
		}
		if cost < 1 {
			t.Fatalf("valid spec %s costs %d", data, cost)
		}
	})
}
