package damr

import (
	"math"
	"testing"
	"time"

	"rhsc/internal/amr"
	"rhsc/internal/cluster"
	"rhsc/internal/core"
	"rhsc/internal/testprob"
)

func blastConfig() amr.Config {
	cfg := amr.DefaultConfig(core.DefaultConfig())
	cfg.BlockN = 8
	cfg.MaxLevel = 2
	cfg.RegridEvery = 4
	return cfg
}

// referenceRun advances a plain single-process amr tree by the same fixed
// number of CFL steps the distributed driver takes.
func referenceRun(t *testing.T, p *testprob.Problem, nbx, steps int, cfg amr.Config) *amr.Tree {
	t.Helper()
	tree, err := amr.NewTree(p, nbx, cfg)
	if err != nil {
		t.Fatalf("reference tree: %v", err)
	}
	for s := 0; s < steps; s++ {
		if err := tree.Step(tree.MaxDt()); err != nil {
			t.Fatalf("reference step %d: %v", s, err)
		}
	}
	return tree
}

// sampleL1 returns the max-abs and L1 density differences between two
// trees over a uniform probe lattice.
func sampleL1(a, b *amr.Tree, p *testprob.Problem, n int) (linf, l1 float64) {
	count := 0
	for j := 0; j < n; j++ {
		y := p.Y0 + (float64(j)+0.5)/float64(n)*(p.Y1-p.Y0)
		for i := 0; i < n; i++ {
			x := p.X0 + (float64(i)+0.5)/float64(n)*(p.X1-p.X0)
			d := math.Abs(a.SampleAt(x, y).Rho - b.SampleAt(x, y).Rho)
			if d > linf {
				linf = d
			}
			l1 += d
			count++
		}
	}
	return linf, l1 / float64(count)
}

// TestRankCountInvariance is the acceptance test of the subsystem: the
// 2-D blast on 1, 2, and 4 ranks must reproduce the single-rank amr run
// — total conserved mass and the density field — within 1e-12 (the
// design argues bit-exactness; the tolerance is the acceptance bar),
// under the default SSP-RK2 and under SSP-RK3.
func TestRankCountInvariance(t *testing.T) {
	p := testprob.Blast2D
	const nbx, steps = 4, 10
	for _, rk := range []core.Integrator{core.RK2, core.RK3} {
		t.Run(rk.String(), func(t *testing.T) {
			cfg := blastConfig()
			cfg.Core.Integrator = rk
			ref := referenceRun(t, p, nbx, steps, cfg)

			for _, ranks := range []int{1, 2, 4} {
				res, err := Run(p, nbx, cfg, Options{
					Ranks: ranks,
					Mode:  cluster.Async,
					Net:   cluster.Infiniband(),
					Steps: steps,
				})
				if err != nil {
					t.Fatalf("ranks=%d: %v", ranks, err)
				}
				if res.Steps != steps {
					t.Errorf("ranks=%d: took %d steps, want %d", ranks, res.Steps, steps)
				}
				if res.Leaves != ref.NumLeaves() {
					t.Errorf("ranks=%d: %d leaves, reference %d", ranks, res.Leaves, ref.NumLeaves())
				}
				if res.MaxLevel != ref.MaxLevelInUse() {
					t.Errorf("ranks=%d: max level %d, reference %d", ranks, res.MaxLevel, ref.MaxLevelInUse())
				}
				if res.Tree.Steps() != ref.Steps() {
					t.Errorf("ranks=%d: tree steps %d, reference %d", ranks, res.Tree.Steps(), ref.Steps())
				}
				refMass := ref.TotalMass()
				if rel := math.Abs(res.TotalMass-refMass) / refMass; rel > 1e-12 {
					t.Errorf("ranks=%d: mass %v vs reference %v (rel %.3e)", ranks, res.TotalMass, refMass, rel)
				}
				linf, l1 := sampleL1(res.Tree, ref, p, 64)
				if linf > 1e-12 || l1 > 1e-12 {
					t.Errorf("ranks=%d: density mismatch Linf=%.3e L1=%.3e", ranks, linf, l1)
				}
			}
		})
	}
}

// TestHalosRecoverOrderBitwise pins the Halos hook's order — owned leaves
// recovered while the halos are in flight, replicas after they land — to
// the serial tree, whose sync recovers every leaf in one pass: the gathered
// tree's fingerprint (every leaf's U and W, ghosts included) must be equal
// at 2 and 4 ranks, on the plain arm and on the fail-safe arm (detector
// kept firing, so the stage arrives already recovered and only the
// replicas are).
func TestHalosRecoverOrderBitwise(t *testing.T) {
	p := testprob.Blast2D
	const nbx, steps = 4, 10
	for _, fs := range []bool{false, true} {
		cfg := blastConfig()
		if fs {
			cfg.Core.FailSafe = true
			cfg.Core.FailSafeRelax = 0.05
		}
		ref := referenceRun(t, p, nbx, steps, cfg)
		if fs && ref.TroubledCells() == 0 {
			t.Fatal("fail-safe reference never flagged a cell — the arm exercises nothing")
		}
		for _, ranks := range []int{2, 4} {
			res, err := Run(p, nbx, cfg, Options{
				Ranks: ranks, Mode: cluster.Async, Net: cluster.Infiniband(), Steps: steps,
			})
			if err != nil {
				t.Fatalf("failsafe=%v ranks=%d: %v", fs, ranks, err)
			}
			if got, want := res.Tree.Fingerprint(), ref.Fingerprint(); got != want {
				t.Errorf("failsafe=%v ranks=%d: gathered tree %016x, serial tree %016x", fs, ranks, got, want)
			}
		}
	}
}

// TestOneHaloExchangePerStage counts the step's traffic on the reliable
// transport, per integrator: with checkpoints off and no regrid inside the
// window, doubling the step count must add, per step, exactly one halo
// frame per directed peer pair and stage (Integrator.Stages) beside the
// dt collective, and that many halo payloads' worth of bytes — for SSP-RK2
// the two exchanges bench reports as damr.halo_bytes_per_step. An extra
// exchange (the combine sync the stage loop does not have) would add a
// frame per pair and a payload of bytes; a tree that ran RK2 whatever its
// integrator would send two.
func TestOneHaloExchangePerStage(t *testing.T) {
	p := testprob.Blast2D
	const nbx, steps = 4, 6
	for _, rk := range []core.Integrator{core.RK1, core.RK2, core.RK3} {
		t.Run(rk.String(), func(t *testing.T) {
			cfg := blastConfig()
			cfg.RegridEvery = 1 << 30
			cfg.Core.Integrator = rk
			opts := Options{Ranks: 2, Net: cluster.Infiniband()}
			run := func(n int) *Result {
				o := opts
				o.Steps = n
				o.Transport = &cluster.TransportConfig{Reliable: true, RTO: 50 * time.Millisecond}
				res, err := runWithin(t, time.Minute, func() (*Result, error) { return Run(p, nbx, cfg, o) })
				if err != nil {
					t.Fatal(err)
				}
				if res.Regrids != 0 || res.Checkpoints != 0 || res.Net.Timeouts != 0 {
					t.Fatalf("window not clean: %d regrids, %d checkpoints, %d timeouts",
						res.Regrids, res.Checkpoints, res.Net.Timeouts)
				}
				return res
			}
			short, long := run(steps), run(2*steps)

			// One exchange's payload and frame count, from the exchange plan both
			// runs keep from the first step to the last.
			if err := opts.validate(); err != nil {
				t.Fatal(err)
			}
			var haloBytes, pairs int64
			for rank := 0; rank < opts.Ranks; rank++ {
				ep := buildEpoch(long.Tree, &opts, cfg.MaxLevel, rank, []int{0, 1})
				for _, dst := range ep.peersOut {
					pairs++
					for _, i := range ep.sendTo[dst] {
						haloBytes += int64(8 * len(long.Tree.LeafRawU(i)))
					}
				}
			}
			if pairs != 2 || haloBytes == 0 {
				t.Fatalf("exchange plan has %d directed pairs carrying %d B, want 2 and > 0", pairs, haloBytes)
			}

			// The dt collective is one contribution to the root and one
			// rebroadcast at two ranks; the end-of-run gathers are the same
			// frames in both runs.
			const collectiveFrames = 2
			stages := int64(rk.Stages())
			if got, want := long.Net.Sent-short.Net.Sent, int64(steps)*(stages*pairs+collectiveFrames); got != want {
				t.Errorf("%d more steps sent %d more frames, want %d (%d exchanges a step)", steps, got, want, stages)
			}
			// Bytes, exactly: the collective is a one-word contribution and a
			// rebroadcast of [count, 2 ranks, 2 lengths, 2 values]; the final
			// gather's record set has the same size in both runs, since its
			// size depends only on the leaves, not on their values.
			const collectiveBytes = 8 * (1 + 7)
			if got, want := long.Net.SentBytes-short.Net.SentBytes, int64(steps)*(stages*haloBytes+collectiveBytes); got != want {
				t.Errorf("%d more steps sent %d more B, want %d (%d exchanges of %d B a step)", steps, got, want, stages, haloBytes)
			}
		})
	}
}

// TestCheckpointBytesArePostedBytes pins Result.CheckpointBytes to the
// fabric: on the reliable transport, with no regrid, a run with buddy
// checkpoints sends exactly CheckpointBytes more bytes, in exactly one
// ring frame per rank per generation, than the same run without them.
func TestCheckpointBytesArePostedBytes(t *testing.T) {
	p := testprob.Blast2D
	cfg := blastConfig()
	cfg.RegridEvery = 1 << 30
	const nbx, steps, every, ranks = 4, 6, 2, 3
	run := func(k int) *Result {
		o := Options{Ranks: ranks, Net: cluster.Infiniband(), Steps: steps, CheckpointEvery: k,
			Transport: &cluster.TransportConfig{Reliable: true, RTO: 50 * time.Millisecond}}
		res, err := runWithin(t, time.Minute, func() (*Result, error) { return Run(p, nbx, cfg, o) })
		if err != nil {
			t.Fatal(err)
		}
		if res.Regrids != 0 || res.Net.Timeouts != 0 {
			t.Fatalf("window not clean: %d regrids, %d timeouts", res.Regrids, res.Net.Timeouts)
		}
		return res
	}
	plain, ck := run(0), run(every)
	if ck.Checkpoints != steps/every || ck.CheckpointBytes == 0 {
		t.Fatalf("%d checkpoints of %d B, want %d generations", ck.Checkpoints, ck.CheckpointBytes, steps/every)
	}
	if got := ck.Net.SentBytes - plain.Net.SentBytes; got != ck.CheckpointBytes {
		t.Errorf("checkpoints added %d B to the fabric, Result.CheckpointBytes says %d", got, ck.CheckpointBytes)
	}
	if got, want := ck.Net.Sent-plain.Net.Sent, int64(ranks*ck.Checkpoints); got != want {
		t.Errorf("checkpoints added %d frames, want %d ring sends", got, want)
	}
}

// TestSod1DInvariance exercises the 1-D code path (binary tree, x-only
// halos) across ranks.
func TestSod1DInvariance(t *testing.T) {
	p := testprob.Sod
	cfg := amr.DefaultConfig(core.DefaultConfig())
	cfg.BlockN = 16
	cfg.MaxLevel = 2
	cfg.RegridEvery = 3
	const nbx, steps = 4, 12

	ref := referenceRun(t, p, nbx, steps, cfg)
	for _, ranks := range []int{2, 3} {
		res, err := Run(p, nbx, cfg, Options{Ranks: ranks, Steps: steps})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		refMass := ref.TotalMass()
		if rel := math.Abs(res.TotalMass-refMass) / refMass; rel > 1e-12 {
			t.Errorf("ranks=%d: mass %v vs reference %v", ranks, res.TotalMass, refMass)
		}
		if res.Leaves != ref.NumLeaves() {
			t.Errorf("ranks=%d: %d leaves, reference %d", ranks, res.Leaves, ref.NumLeaves())
		}
		maxd := 0.0
		for i := 0; i < 200; i++ {
			x := p.X0 + (float64(i)+0.5)/200*(p.X1-p.X0)
			d := math.Abs(res.Tree.SampleAt(x, 0).Rho - ref.SampleAt(x, 0).Rho)
			if d > maxd {
				maxd = d
			}
		}
		if maxd > 1e-12 {
			t.Errorf("ranks=%d: density Linf %.3e", ranks, maxd)
		}
	}
}

// TestMigrationOccurs confirms the blast run actually rebalances and
// moves blocks between owners as the refined region grows — otherwise
// the migration path is dead code and the invariance test proves less
// than it claims. Three ranks on a four-quadrant problem force the curve
// cuts off the quadrant boundaries, so growth must shift ownership (with
// four ranks the symmetric blast is a fixed point of the partition).
func TestMigrationOccurs(t *testing.T) {
	res, err := Run(testprob.Blast2D, 4, blastConfig(), Options{
		Ranks: 3, Steps: 48, Net: cluster.Infiniband(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regrids == 0 {
		t.Fatal("run never regridded")
	}
	if res.Rebalances == 0 {
		t.Error("no regrid changed the hierarchy — pick a more dynamic setup")
	}
	if res.MigratedBlocks == 0 {
		t.Error("no block changed owner across rebalances")
	}
	if res.MigratedBytes == 0 {
		t.Error("rebalances moved no data")
	}
	if res.Imbalance < 0 {
		t.Errorf("negative imbalance %v", res.Imbalance)
	}
}

// TestMortonKeys pins the curve ordering: children enumerate in N-order
// (Morton order) and keys are unique and properly nested.
func TestMortonKeys(t *testing.T) {
	// 2-D: the four children of (0,0) at level 1, in child-array order
	// (cy*2+cx), must be strictly increasing on the curve.
	prev := uint64(0)
	for c, ref := range []amr.BlockRef{
		{Level: 1, Bi: 0, Bj: 0}, {Level: 1, Bi: 1, Bj: 0},
		{Level: 1, Bi: 0, Bj: 1}, {Level: 1, Bi: 1, Bj: 1},
	} {
		k := mortonKey(ref, 2, 2)
		if c > 0 && k <= prev {
			t.Errorf("child %d key %d not increasing (prev %d)", c, k, prev)
		}
		prev = k
	}
	// A coarse block sorts at its first descendant's position.
	if mortonKey(amr.BlockRef{Level: 0, Bi: 1, Bj: 0}, 2, 2) !=
		mortonKey(amr.BlockRef{Level: 2, Bi: 4, Bj: 0}, 2, 2) {
		t.Error("coarse block does not anchor at its lower-left descendant")
	}
	// Distinct sibling keys in 1-D too.
	if mortonKey(amr.BlockRef{Level: 1, Bi: 0, Bj: 0}, 3, 1) ==
		mortonKey(amr.BlockRef{Level: 1, Bi: 1, Bj: 0}, 3, 1) {
		t.Error("1-D sibling keys collide")
	}
}

// TestPartitionCurve pins the midpoint splitting rule: contiguity,
// monotonicity, weighting, and graceful behaviour with more ranks than
// blocks.
func TestPartitionCurve(t *testing.T) {
	owner := partitionCurve([]float64{1, 1, 1, 1}, nil, 2)
	want := []int{0, 0, 1, 1}
	for i := range owner {
		if owner[i] != want[i] {
			t.Fatalf("even split: got %v want %v", owner, want)
		}
	}
	// A 3:1 weighted two-rank split of four equal blocks gives rank 0
	// three blocks.
	owner = partitionCurve([]float64{1, 1, 1, 1}, []float64{3, 1}, 2)
	want = []int{0, 0, 0, 1}
	for i := range owner {
		if owner[i] != want[i] {
			t.Fatalf("weighted split: got %v want %v", owner, want)
		}
	}
	// Monotone non-decreasing owners (contiguous segments) on uneven
	// costs.
	owner = partitionCurve([]float64{5, 1, 1, 1, 5, 1}, nil, 3)
	for i := 1; i < len(owner); i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("owners not contiguous: %v", owner)
		}
	}
	// More ranks than blocks: no panic, owners valid, some ranks empty.
	owner = partitionCurve([]float64{1, 1}, nil, 5)
	for _, r := range owner {
		if r < 0 || r >= 5 {
			t.Fatalf("owner out of range: %v", owner)
		}
	}
}

// TestWeightedPartitionRuns drives the hetero-style path end to end: a
// fast rank and a slow rank, curve split by throughput.
func TestWeightedPartitionRuns(t *testing.T) {
	res, err := Run(testprob.Blast2D, 4, blastConfig(), Options{
		Ranks:             2,
		RankRates:         []float64{48e6, 16e6},
		WeightedPartition: true,
		Steps:             4,
		Net:               cluster.GigE(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceRun(t, testprob.Blast2D, 4, 4, blastConfig())
	if rel := math.Abs(res.TotalMass-ref.TotalMass()) / ref.TotalMass(); rel > 1e-12 {
		t.Errorf("weighted run mass off by %.3e", rel)
	}
	if res.VirtualTime <= 0 {
		t.Errorf("virtual clock not charged: %v", res.VirtualTime)
	}
}

// TestOptionsValidation covers the error paths.
func TestOptionsValidation(t *testing.T) {
	cfg := blastConfig()
	if _, err := Run(testprob.Blast2D, 4, cfg, Options{Ranks: 0}); err == nil {
		t.Error("accepted zero ranks")
	}
	if _, err := Run(testprob.Blast2D, 4, cfg, Options{Ranks: 2, RankRates: []float64{1}}); err == nil {
		t.Error("accepted mismatched RankRates")
	}
	if _, err := Run(testprob.Blast2D, 4, cfg, Options{Ranks: 2, WeightedPartition: true}); err == nil {
		t.Error("accepted WeightedPartition without RankRates")
	}
	if _, err := Run(testprob.Blast2D, 4, cfg, Options{Ranks: 2, RankRates: []float64{1, -1}}); err == nil {
		t.Error("accepted negative rank rate")
	}
	cfg.Core.FailSafe, cfg.Core.FailSafeMaxFrac = true, 0.01
	if _, err := Run(testprob.Blast2D, 4, cfg, Options{Ranks: 2, Steps: 1}); err == nil {
		t.Error("accepted FailSafeMaxFrac, which no rank can evaluate")
	}
}
