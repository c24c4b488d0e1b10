// Package damr runs the block-structured AMR hierarchy of package amr
// distributed across cluster.World ranks.
//
// Decomposition model: every rank holds a full structural replica of the
// quadtree, but only a contiguous segment of the Morton-ordered leaf
// curve is *fresh* (advanced locally) on each rank — the classic
// replicated-tree / distributed-data design of GAMER-class AMR codes,
// which is exact at the block counts the experiments use. The freshness
// invariant each rank maintains is:
//
//	owned leaves ∪ halo ring (all face+corner neighbours of owned
//	leaves) carry bit-identical data to a single-rank amr run.
//
// One halo exchange per stage of the SSP integrator — every stage after
// the first being fused with the SSP combination as on a uniform grid,
// so SSP-RK2 exchanges twice a step — keeps the ring fresh; a heavier
// exchange after each regrid migrates blocks whose Morton-curve owner
// changed and refreshes newly adjacent rings. Each rank runs the serial
// tree's own stage sequence (amr.Tree.StepLeaves, core.StepSolvers) on
// its owned leaves, with its mask and halo exchanges as the two hooks,
// so every leaf sees exactly the per-leaf operation sequence of the
// serial tree — including the con2prim Newton guess, which travels with
// migrated blocks — and the distributed run reproduces the single-rank
// run to the last bit at any rank count, which TestRankCountInvariance
// pins down.
//
// Communication rides on the channel transport of package cluster and is
// charged to the same virtual clock / NetModel accounting, so the
// distributed-AMR scaling experiment (EXPERIMENTS.md E12) reports
// modelled parallel efficiency beyond the host's core count exactly like
// the uniform-grid experiments E5/E6.
package damr

import (
	"fmt"
	"sort"
	"time"

	"rhsc/internal/amr"
	"rhsc/internal/cluster"
	"rhsc/internal/metrics"
)

// Options configures a distributed AMR run.
type Options struct {
	// Ranks is the number of ranks advancing the hierarchy in lockstep.
	Ranks int
	// Mode selects bulk-synchronous (Sync) or overlapped (Async)
	// communication accounting, as in cluster.Options.
	Mode cluster.Mode
	// Net is the virtual interconnect model.
	Net cluster.NetModel
	// RankRates, when non-empty (len == Ranks), gives every rank its own
	// throughput in place of cluster.ZoneRate — a heterogeneous cluster.
	RankRates []float64
	// WeightedPartition splits the Morton curve proportionally to
	// RankRates instead of evenly, so accelerated ranks own more blocks.
	WeightedPartition bool
	// Steps, when > 0, runs exactly that many CFL steps; otherwise the
	// run integrates to TEnd (or the problem's TEnd when TEnd == 0).
	Steps int
	TEnd  float64

	// CheckpointEvery > 0 takes an in-memory buddy checkpoint whenever
	// the tree's committed step count is a multiple of it: each active
	// rank encodes its owned leaves (U and W, including ghosts) as one
	// leaf record set and swaps sets around the ring of active ranks, so
	// one rank failure loses no generation. Required for Fault.
	CheckpointEvery int
	// Fault, when non-nil, injects one deterministic fail-stop rank
	// failure (see RankFault); the survivors detect it, restore the last
	// checkpoint generation, re-partition the Morton curve among
	// themselves, and replay — reproducing the fault-free trajectory to
	// round-off because the run is invariant to the partition.
	Fault *RankFault

	// Transport, when non-nil, runs the ranks over the lossy-fabric
	// transport of cluster.NewWorldTransport instead of the perfect
	// default fabric: seeded chaos injection (Transport.Chaos), reliable
	// seq/CRC/ack/retransmit framing, deadline-bounded receives, and the
	// alarm/era recovery protocol (docs/RESILIENCE.md §7). Every masked
	// chaos schedule leaves the run bit-identical to the clean run; an
	// unmaskable fault (a silenced/partitioned rank) is detected by
	// deadline, excluded like a dead rank, and recovered from the buddy
	// checkpoints. A zero RecvDeadline defaults to 2s here so no receive
	// can hang.
	Transport *cluster.TransportConfig
}

// RankFault schedules one deterministic fail-stop rank failure: the
// given world rank kills itself at the top of the step loop once the
// tree has committed AfterStep steps — after the (coinciding)
// checkpoint exchange, before the dt collective that detects the loss.
// AfterStep must lie before the end of the run for the fault to fire.
type RankFault struct {
	Rank      int
	AfterStep int
}

// Result summarises a distributed AMR run (returned for rank 0).
type Result struct {
	Ranks       int
	Mode        cluster.Mode
	Steps       int
	RealTime    time.Duration
	VirtualTime float64 // max over ranks of the per-rank virtual clock

	TotalMass   float64
	ZoneUpdates int64 // summed over ranks
	Leaves      int   // final leaf count
	MaxLevel    int   // deepest level in use at the end

	// Regrids counts regrid evaluations; Rebalances those that changed
	// the hierarchy and therefore recomputed the partition and migrated.
	Regrids    int
	Rebalances int
	// MigratedBlocks counts blocks whose owner changed; MigratedBytes is
	// the total payload of the migration/refresh exchanges.
	MigratedBlocks int
	MigratedBytes  int64
	// RebalanceTime is real time spent in regrid + migration phases
	// (rank 0); RebalanceVirtual is the virtual-clock share of the same
	// (max over ranks).
	RebalanceTime    time.Duration
	RebalanceVirtual float64
	// Imbalance is the step-averaged (max−mean)/mean of the per-rank
	// partition cost.
	Imbalance float64

	// Checkpoints counts buddy-checkpoint generations taken (per rank —
	// lockstep makes the count identical across ranks); CheckpointBytes
	// is the summed payload posted to the ring (8 bytes per record word),
	// CheckpointVirtual the virtual-clock share of the ring exchanges (max
	// over ranks).
	Checkpoints       int
	CheckpointBytes   int64
	CheckpointVirtual float64
	// Recoveries counts completed rank-failure recoveries; Survivors is
	// the final active rank count. RecomputedSteps is the widest
	// checkpoint-to-detection window replayed; RecoveryVirtual and
	// RecoveryReal are the virtual (max over ranks) and wall-clock (this
	// rank) time spent restoring and re-partitioning.
	Recoveries      int
	Survivors       int
	RecomputedSteps int
	RecoveryVirtual float64
	RecoveryReal    time.Duration

	// TroubledCells and RepairedCells sum the fail-safe detector flags
	// and local flux-replacement repairs over the owning ranks (zero
	// unless the leaf method runs with core.Config.FailSafe). Like
	// ZoneUpdates, a replayed recovery window re-earns its counts.
	TroubledCells int64
	RepairedCells int64

	// Tree is rank 0's hierarchy with every leaf's final data gathered
	// in, for validation against a single-rank run.
	Tree *amr.Tree

	// Net is the transport counter snapshot of the run (nil unless
	// Options.Transport was set): traffic, chaos faults injected,
	// repairs performed, typed failures surfaced.
	Net *metrics.TransportSnapshot
}

// mortonKey maps a block ref to its position on the Z-order curve:
// normalise the block coordinates to the finest admissible level (so
// coarse blocks sort by their lower-left descendant) and interleave the
// bits, x in the even positions. Keys are unique across the leaves of a
// 2:1-balanced tree because leaf regions are disjoint.
func mortonKey(r amr.BlockRef, maxLevel, dim int) uint64 {
	shift := uint(maxLevel - r.Level)
	x := uint64(r.Bi) << shift
	if dim < 2 {
		return x
	}
	y := uint64(r.Bj) << shift
	return spreadBits(x) | spreadBits(y)<<1
}

// spreadBits inserts a zero between the low 32 bits of v.
func spreadBits(v uint64) uint64 {
	v &= 0xFFFFFFFF
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// mortonOrder returns leaf indices sorted by Morton key.
func mortonOrder(refs []amr.BlockRef, maxLevel, dim int) []int {
	keys := make([]uint64, len(refs))
	for i, r := range refs {
		keys[i] = mortonKey(r, maxLevel, dim)
	}
	order := make([]int, len(refs))
	for i := range order {
		order[i] = i
	}
	// Keys are unique among the leaves of a consistent tree, so the sort
	// is deterministic without a stability requirement.
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	return order
}

// partitionCurve assigns each Morton position an owner rank: the curve is
// cut into contiguous segments whose cost share tracks each rank's weight
// share. Block i goes to the rank whose weighted interval contains the
// block's cost midpoint — the standard space-filling-curve balancing
// rule, which never splits a block and degrades gracefully when one block
// dominates. Owners are non-decreasing along the curve, so segments stay
// contiguous; ranks may end up empty when there are more ranks than
// blocks. Everything here is a pure function of replicated state, so all
// ranks compute identical partitions.
func partitionCurve(costs []float64, weights []float64, ranks int) []int {
	total := 0.0
	for _, c := range costs {
		total += c
	}
	wsum := 0.0
	for _, w := range weights {
		wsum += w
	}
	// thresholds[r] is the cost coordinate where rank r's segment ends.
	thresholds := make([]float64, ranks)
	acc := 0.0
	for r := 0; r < ranks; r++ {
		if wsum > 0 {
			acc += weights[r] / wsum * total
		} else {
			acc += total / float64(ranks)
		}
		thresholds[r] = acc
	}
	thresholds[ranks-1] = total + 1 // absorb rounding at the top end

	owner := make([]int, len(costs))
	cum := 0.0
	r := 0
	for i, c := range costs {
		mid := cum + 0.5*c
		for r < ranks-1 && mid >= thresholds[r] {
			r++
		}
		owner[i] = r
		cum += c
	}
	return owner
}

// validate normalises and sanity-checks the options.
func (o *Options) validate() error {
	if o.Ranks < 1 {
		return fmt.Errorf("damr: need >= 1 rank, got %d", o.Ranks)
	}
	if len(o.RankRates) > 0 && len(o.RankRates) != o.Ranks {
		return fmt.Errorf("damr: %d rank rates for %d ranks", len(o.RankRates), o.Ranks)
	}
	for i, r := range o.RankRates {
		if r <= 0 {
			return fmt.Errorf("damr: rank %d rate %v must be positive", i, r)
		}
	}
	if o.WeightedPartition && len(o.RankRates) == 0 {
		return fmt.Errorf("damr: WeightedPartition requires RankRates")
	}
	if o.Fault != nil {
		if o.CheckpointEvery <= 0 {
			return fmt.Errorf("damr: fault injection requires CheckpointEvery > 0")
		}
		if o.Ranks < 2 {
			return fmt.Errorf("damr: surviving a rank failure requires >= 2 ranks")
		}
		if o.Fault.Rank < 0 || o.Fault.Rank >= o.Ranks {
			return fmt.Errorf("damr: fault rank %d out of range [0,%d)", o.Fault.Rank, o.Ranks)
		}
		if o.Fault.AfterStep < 0 {
			return fmt.Errorf("damr: fault step %d negative", o.Fault.AfterStep)
		}
	}
	if o.Transport != nil {
		if o.Transport.RecvDeadline <= 0 {
			// Every receive must be bounded or a silenced peer would hang
			// the run; 2s is far above any masked-chaos repair latency.
			o.Transport.RecvDeadline = 2 * time.Second
		}
		if o.Transport.Chaos != nil && o.Transport.Chaos.Silence != nil && o.CheckpointEvery <= 0 {
			return fmt.Errorf("damr: a Silence chaos fault requires CheckpointEvery > 0 to recover")
		}
	}
	return nil
}
