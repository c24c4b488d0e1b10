package cluster

import (
	"math"
	"sync"
	"testing"
	"time"

	"rhsc/internal/core"
	"rhsc/internal/grid"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

func TestCommPointToPoint(t *testing.T) {
	w := NewWorld(2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := w.Comm(0)
		c.Send(1, 7, []float64{1, 2, 3}, 0.5)
	}()
	go func() {
		defer wg.Done()
		c := w.Comm(1)
		data, stamp, _ := c.Recv(0, 7)
		if len(data) != 3 || data[2] != 3 || stamp != 0.5 {
			t.Errorf("recv = %v, %v", data, stamp)
		}
	}()
	wg.Wait()
}

// Out-of-order tags must be stashed, not lost: receive tag B first even
// though tag A was sent first.
func TestCommTagStash(t *testing.T) {
	w := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	c0.Send(1, 1, []float64{10}, 0)
	c0.Send(1, 2, []float64{20}, 0)
	if d, _, _ := c1.Recv(0, 2); d[0] != 20 {
		t.Errorf("tag 2 = %v", d)
	}
	if d, _, _ := c1.Recv(0, 1); d[0] != 10 {
		t.Errorf("tag 1 = %v", d)
	}
}

func TestAllReduce(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	mins := make([]float64, n)
	sums := make([]float64, n)
	maxs := make([]float64, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			x := float64(r + 1)
			mins[r] = c.AllReduceMin(x)
			sums[r] = c.AllReduceSum(x)
			maxs[r] = c.AllReduceMax(x)
		}(r)
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		if mins[r] != 1 || sums[r] != 15 || maxs[r] != 5 {
			t.Fatalf("rank %d: min=%v sum=%v max=%v", r, mins[r], sums[r], maxs[r])
		}
	}
}

func TestGather(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	var out [][]float64
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res := w.Comm(r).Gather([]float64{float64(r), float64(r * 10)})
			if r == 0 {
				out = res
			} else if res != nil {
				t.Errorf("rank %d got non-nil gather", r)
			}
		}(r)
	}
	wg.Wait()
	if len(out) != 3 || out[2][1] != 20 {
		t.Fatalf("gather = %v", out)
	}
}

func TestNetModelCost(t *testing.T) {
	n := NetModel{Latency: 1e-6, Bandwidth: 1e9}
	if got := n.Cost(1000); math.Abs(got-(1e-6+1e-6)) > 1e-18 {
		t.Errorf("cost = %v", got)
	}
	free := NetModel{}
	if free.Cost(1<<30) != 0 {
		t.Error("ideal network not free")
	}
	if GigE().Cost(8) <= Infiniband().Cost(8) {
		t.Error("GigE should be slower than IB")
	}
	if (NetModel{}).AllReduceCost(8) != 0 {
		t.Error("free allreduce")
	}
	if GigE().AllReduceCost(1) != 0 {
		t.Error("1-rank allreduce should be free")
	}
	if GigE().AllReduceCost(8) <= GigE().AllReduceCost(2) {
		t.Error("allreduce cost must grow with ranks")
	}
}

// The decisive correctness test: a distributed Sod run must reproduce the
// single-grid solution bitwise, for several rank counts.
func TestDistributedMatchesSerial(t *testing.T) {
	cfg := core.DefaultConfig()
	const n = 128

	serial, err := Run(testprob.Sod, n, cfg, Options{Ranks: 1, TEnd: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 4, 8} {
		dist, err := Run(testprob.Sod, n, cfg, Options{Ranks: ranks, TEnd: 0.2})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if dist.Steps != serial.Steps {
			t.Errorf("ranks=%d: %d steps vs %d serial", ranks, dist.Steps, serial.Steps)
		}
		if len(dist.Rho) != len(serial.Rho) {
			t.Fatalf("ranks=%d: profile length %d vs %d", ranks, len(dist.Rho), len(serial.Rho))
		}
		for i := range serial.Rho {
			if dist.Rho[i] != serial.Rho[i] {
				t.Fatalf("ranks=%d: rho[%d] = %v vs %v", ranks, i, dist.Rho[i], serial.Rho[i])
			}
		}
	}
}

// Periodic problems must also decompose exactly (wrap-around halos).
func TestDistributedPeriodic(t *testing.T) {
	cfg := core.DefaultConfig()
	const n = 96
	serial, err := Run(testprob.SmoothWave, n, cfg, Options{Ranks: 1, TEnd: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 3} {
		dist, err := Run(testprob.SmoothWave, n, cfg, Options{Ranks: ranks, TEnd: 0.3})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		for i := range serial.Rho {
			if dist.Rho[i] != serial.Rho[i] {
				t.Fatalf("ranks=%d: rho[%d] = %v vs %v", ranks, i, dist.Rho[i], serial.Rho[i])
			}
		}
		if rel := math.Abs(dist.TotalMass-serial.TotalMass) / serial.TotalMass; rel > 1e-13 {
			t.Errorf("ranks=%d: mass drift %v", ranks, rel)
		}
	}
}

// Sync and async exchanges are different performance models of the same
// algorithm: physics identical, virtual time lower for async under
// latency.
func TestAsyncSamePhysicsLowerTime(t *testing.T) {
	cfg := core.DefaultConfig()
	const n = 128
	base := Options{Ranks: 4, Net: GigE(), Steps: 10}

	syncOpts := base
	syncOpts.Mode = Sync
	syncRes, err := Run(testprob.Sod, n, cfg, syncOpts)
	if err != nil {
		t.Fatal(err)
	}
	asyncOpts := base
	asyncOpts.Mode = Async
	asyncRes, err := Run(testprob.Sod, n, cfg, asyncOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range syncRes.Rho {
		if syncRes.Rho[i] != asyncRes.Rho[i] {
			t.Fatalf("mode changed the physics at %d", i)
		}
	}
	if asyncRes.VirtualTime >= syncRes.VirtualTime {
		t.Errorf("async (%v) not faster than sync (%v)", asyncRes.VirtualTime, syncRes.VirtualTime)
	}
}

// Strong scaling in virtual time: more ranks must reduce the modelled time
// on a fixed problem, and async must scale at least as well as sync.
func TestVirtualStrongScaling(t *testing.T) {
	cfg := core.DefaultConfig()
	// The problem must be large enough that per-rank compute dominates
	// interconnect latency, or strong scaling saturates immediately (which
	// the model rightly reproduces for tiny grids).
	const n = 4096
	vt := func(ranks int, mode Mode) float64 {
		res, err := Run(testprob.Sod, n, cfg, Options{
			Ranks: ranks, Mode: mode, Net: Infiniband(), Steps: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.VirtualTime
	}
	t1 := vt(1, Sync)
	t4 := vt(4, Sync)
	t8 := vt(8, Sync)
	if !(t4 < t1 && t8 < t4) {
		t.Errorf("sync virtual times not scaling: %v, %v, %v", t1, t4, t8)
	}
	if a8 := vt(8, Async); a8 > t8 {
		t.Errorf("async@8 (%v) slower than sync@8 (%v)", a8, t8)
	}
	// Speedup at 8 ranks should be substantial on IB (> 4x).
	if sp := t1 / t8; sp < 4 {
		t.Errorf("8-rank speedup %v < 4", sp)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := core.DefaultConfig()
	if _, err := Run(testprob.Sod, 100, cfg, Options{Ranks: 3}); err == nil {
		t.Error("indivisible decomposition accepted")
	}
	if _, err := Run(testprob.Sod, 8, cfg, Options{Ranks: 8}); err == nil {
		t.Error("1-cell subdomains accepted")
	}
	if _, err := Run(testprob.Sod, 64, cfg, Options{Ranks: 0}); err == nil {
		t.Error("0 ranks accepted")
	}
}

// TestRunRejectsFailSafe pins the fail-safe rejection: the repair exchanges
// halos only on ranks that flagged a cell, so a 4-rank 1-D blast under
// FailSafe would deadlock — Run must refuse it up front. The deadline
// turns a regression into a failure instead of a hung test binary.
func TestRunRejectsFailSafe(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.FailSafe = true
	withTimeout(t, 30*time.Second, func() {
		if _, err := Run(testprob.Blast, 400, cfg, Options{Ranks: 4, Steps: 200}); err == nil {
			t.Error("FailSafe accepted")
		}
	})
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty world accepted")
		}
	}()
	NewWorld(0)
}

func TestCommRankBounds(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range rank accepted")
		}
	}()
	w.Comm(5)
}

// 2-D distributed runs: the blast problem over 2 ranks equals serial.
func TestDistributed2D(t *testing.T) {
	cfg := core.DefaultConfig()
	const n = 64
	serial, err := Run(testprob.Blast2D, n, cfg, Options{Ranks: 1, Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Run(testprob.Blast2D, n, cfg, Options{Ranks: 2, Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(dist.TotalMass-serial.TotalMass) / serial.TotalMass; rel > 1e-12 {
		t.Errorf("2D mass mismatch %v", rel)
	}
	for i := range serial.Rho {
		if dist.Rho[i] != serial.Rho[i] {
			t.Fatalf("2D rho[%d] = %v vs %v", i, dist.Rho[i], serial.Rho[i])
		}
	}
}

// A 2-D process grid must reproduce the serial solution bitwise, for both
// outflow (blast) and doubly-periodic (KH) problems.
func TestProcessGrid2D(t *testing.T) {
	cfg := core.DefaultConfig()
	const n = 64
	cases := []struct {
		prob   *testprob.Problem
		px, py int
	}{
		{testprob.Blast2D, 2, 2},
		{testprob.Blast2D, 1, 4},
		{testprob.KelvinHelmholtz2D, 2, 2},
	}
	for _, c := range cases {
		serial, err := Run(c.prob, n, cfg, Options{Ranks: 1, Steps: 4})
		if err != nil {
			t.Fatal(err)
		}
		dist, err := Run(c.prob, n, cfg, Options{
			Ranks: c.px * c.py, Px: c.px, Py: c.py, Steps: 4,
		})
		if err != nil {
			t.Fatalf("%s %dx%d: %v", c.prob.Name, c.px, c.py, err)
		}
		if rel := math.Abs(dist.TotalMass-serial.TotalMass) / serial.TotalMass; rel > 1e-12 {
			t.Errorf("%s %dx%d: mass mismatch %v", c.prob.Name, c.px, c.py, rel)
		}
		if len(dist.Rho) != len(serial.Rho) {
			t.Fatalf("%s %dx%d: profile length %d vs %d",
				c.prob.Name, c.px, c.py, len(dist.Rho), len(serial.Rho))
		}
		for i := range serial.Rho {
			if dist.Rho[i] != serial.Rho[i] {
				t.Fatalf("%s %dx%d: rho[%d] = %v vs %v",
					c.prob.Name, c.px, c.py, i, dist.Rho[i], serial.Rho[i])
			}
		}
	}
}

func TestProcessGridValidation(t *testing.T) {
	cfg := core.DefaultConfig()
	// Mismatched grid.
	if _, err := Run(testprob.Blast2D, 64, cfg, Options{Ranks: 4, Px: 3, Py: 1}); err == nil {
		t.Error("Px*Py != Ranks accepted")
	}
	// 2-D decomposition of a 1-D problem.
	if _, err := Run(testprob.Sod, 64, cfg, Options{Ranks: 4, Px: 2, Py: 2}); err == nil {
		t.Error("Py>1 on a 1-D problem accepted")
	}
	// Indivisible y.
	if _, err := Run(testprob.Blast2D, 64, cfg, Options{Ranks: 3, Px: 1, Py: 3}); err == nil {
		t.Error("Ny not divisible by Py accepted")
	}
}

// The 2-D decomposition reduces halo volume per rank vs 1-D slabs at the
// same rank count (surface-to-volume): verify the virtual clock agrees.
func TestPencilBeatsSlabVirtualTime(t *testing.T) {
	cfg := core.DefaultConfig()
	const n = 256
	slab, err := Run(testprob.Blast2D, n, cfg, Options{
		Ranks: 16, Px: 16, Py: 1, Mode: Sync, Net: GigE(), Steps: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pencil, err := Run(testprob.Blast2D, n, cfg, Options{
		Ranks: 16, Px: 4, Py: 4, Mode: Sync, Net: GigE(), Steps: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pencil.VirtualTime >= slab.VirtualTime {
		t.Errorf("4x4 grid (%v) not faster than 16x1 slabs (%v)",
			pencil.VirtualTime, slab.VirtualTime)
	}
}

// Heterogeneous ranks: a cluster of plain and accelerated nodes. An even
// split leaves the slow nodes as stragglers; a speed-weighted split
// balances the makespan — the heterogeneous-cluster headline.
func TestHeterogeneousRanksWeightedDecomposition(t *testing.T) {
	cfg := core.DefaultConfig()
	const n = 4096
	// 4 plain nodes (16 Mz/s) + 4 accelerated nodes (96 Mz/s).
	rates := []float64{16e6, 16e6, 16e6, 16e6, 96e6, 96e6, 96e6, 96e6}
	base := Options{
		Ranks: 8, Mode: Async, Net: Infiniband(), Steps: 5, RankRates: rates,
	}

	even := base
	evenRes, err := Run(testprob.Sod, n, cfg, even)
	if err != nil {
		t.Fatal(err)
	}
	weighted := base
	weighted.WeightedDecomp = true
	weightedRes, err := Run(testprob.Sod, n, cfg, weighted)
	if err != nil {
		t.Fatal(err)
	}
	// Identical physics regardless of the split.
	if len(evenRes.Rho) != n || len(weightedRes.Rho) != n {
		t.Fatalf("profile lengths %d, %d", len(evenRes.Rho), len(weightedRes.Rho))
	}
	for i := range evenRes.Rho {
		if evenRes.Rho[i] != weightedRes.Rho[i] {
			t.Fatalf("decomposition changed the physics at %d", i)
		}
	}
	// The weighted split must be substantially faster: even split is
	// limited by the slow nodes (512 zones at 16 Mz/s), weighted by the
	// balanced load.
	if weightedRes.VirtualTime >= 0.7*evenRes.VirtualTime {
		t.Errorf("weighted decomposition (%v) not clearly faster than even (%v)",
			weightedRes.VirtualTime, evenRes.VirtualTime)
	}
}

func TestRankRatesValidation(t *testing.T) {
	cfg := core.DefaultConfig()
	if _, err := Run(testprob.Sod, 64, cfg, Options{
		Ranks: 2, RankRates: []float64{1e6},
	}); err == nil {
		t.Error("wrong RankRates length accepted")
	}
	if _, err := Run(testprob.Sod, 64, cfg, Options{
		Ranks: 2, RankRates: []float64{1e6, -1},
	}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := Run(testprob.Blast2D, 64, cfg, Options{
		Ranks: 4, Px: 2, Py: 2, RankRates: []float64{1, 1, 1, 1},
	}); err == nil {
		t.Error("RankRates with 2-D decomposition accepted")
	}
	// A weighted split that starves a rank below the ghost width fails.
	if _, err := Run(testprob.Sod, 64, cfg, Options{
		Ranks: 2, RankRates: []float64{1, 1e9}, WeightedDecomp: true,
	}); err == nil {
		t.Error("starved rank accepted")
	}
}

var _ = grid.Outflow
var _ = state.NComp
