package damr

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"rhsc/internal/amr"
	"rhsc/internal/cluster"
	"rhsc/internal/core"
	"rhsc/internal/metrics"
	"rhsc/internal/testprob"
)

// Exchange tags (clear of the uniform-grid halo tags 100–103 and the
// collective tags in cluster/comm.go). Each phase sends at most one
// message per (src, dst) pair, so per-pair FIFO keeps phases ordered
// under a single halo tag; migration gets its own tag anyway so a
// regrid burst can never be confused with stage traffic.
const (
	tagHalo       = 200
	tagMigrate    = 201
	tagGather     = 202
	tagCheckpoint = 203
	tagFSMask     = 204
)

// epoch is the replicated picture of one partition generation: who owns
// which leaf, which copies this rank keeps fresh, and the symmetric
// exchange plan. It is a pure function of the (identical) tree structure
// and the options, so every rank computes the same epoch without
// communication; only the leaf *data* is distributed.
type epoch struct {
	refs  []amr.BlockRef
	index map[amr.BlockRef]int
	owner []int          // by leaf index
	mines [][]int        // per rank: owned leaf indices, ascending
	mine  []int          // mines[rank]
	sols  []*core.Solver // mine's solvers, the set amr.Tree.StepLeaves steps
	halo  []int          // fresh but not owned, ascending
	fresh []int          // mine ∪ halo, ascending

	// neigh[i] is the face+corner leaf neighbourhood of leaf i.
	neigh [][]int

	// sendTo[dst] / recvFrom[src] are the per-peer halo exchange sets
	// (leaf indices, ascending); computed symmetrically on both sides so
	// message sizes agree without negotiation.
	sendTo   map[int][]int
	recvFrom map[int][]int
	peersOut []int // dsts with non-empty sendTo, ascending
	peersIn  []int // srcs with non-empty recvFrom, ascending

	// Interior/boundary split of this rank's compute for the Async
	// overlap model: a block that feeds any peer is boundary work.
	interiorZones int
	boundaryZones int

	rankCost  []float64
	imbalance float64
}

// buildEpoch enumerates the leaves, partitions the Morton curve over the
// active ranks (ascending world ranks; all of them until a failure), and
// derives this rank's freshness sets and exchange plan. mines stays
// world-rank-indexed — dead ranks simply own nothing.
func buildEpoch(t *amr.Tree, opts *Options, maxLevel, rank int, active []int) *epoch {
	ep := &epoch{
		refs:     t.LeafRefs(),
		sendTo:   map[int][]int{},
		recvFrom: map[int][]int{},
	}
	n := len(ep.refs)
	ep.index = make(map[amr.BlockRef]int, n)
	for i, r := range ep.refs {
		ep.index[r] = i
	}

	// Partition the Morton curve by cost: a leaf's zones, since under the
	// global-Δt lockstep stepper every zone costs the same per step.
	order := mortonOrder(ep.refs, maxLevel, t.Dim())
	costs := make([]float64, n)
	for pos, i := range order {
		costs[pos] = float64(t.LeafZones(i))
	}
	var weights []float64
	if opts.WeightedPartition {
		weights = make([]float64, len(active))
		for k, a := range active {
			weights[k] = opts.RankRates[a]
		}
	}
	curveOwner := partitionCurve(costs, weights, len(active))
	ep.owner = make([]int, n)
	ep.rankCost = make([]float64, len(active))
	for pos, i := range order {
		ep.owner[i] = active[curveOwner[pos]]
		ep.rankCost[curveOwner[pos]] += costs[pos]
	}
	ep.imbalance = metrics.Imbalance(ep.rankCost)

	ep.mines = make([][]int, opts.Ranks)
	for i := 0; i < n; i++ {
		r := ep.owner[i]
		ep.mines[r] = append(ep.mines[r], i)
	}
	ep.mine = ep.mines[rank]
	ep.sols = t.LeafSolvers(ep.mine)

	// Neighbourhoods, halo, and the symmetric exchange plan. Geometric
	// adjacency is symmetric, so "L ∈ mine, M ∈ neigh(L), owner(M) = s"
	// seen from here is exactly "M ∈ mine, L ∈ neigh(M), owner(L) = me"
	// seen from rank s — both sides derive equal send/recv sets.
	ep.neigh = make([][]int, n)
	for i := 0; i < n; i++ {
		refs := t.LeafNeighborRefs(i)
		ni := make([]int, len(refs))
		for k, r := range refs {
			ni[k] = ep.index[r]
		}
		ep.neigh[i] = ni
	}
	inHalo := map[int]bool{}
	inSend := map[int]map[int]bool{}
	boundary := map[int]bool{}
	for _, i := range ep.mine {
		for _, j := range ep.neigh[i] {
			s := ep.owner[j]
			if s == rank {
				continue
			}
			inHalo[j] = true
			if inSend[s] == nil {
				inSend[s] = map[int]bool{}
			}
			inSend[s][i] = true
			boundary[i] = true
		}
	}
	for j := range inHalo {
		ep.halo = append(ep.halo, j)
	}
	sort.Ints(ep.halo)
	ep.fresh = append(append([]int{}, ep.mine...), ep.halo...)
	sort.Ints(ep.fresh)
	for s, set := range inSend {
		idx := make([]int, 0, len(set))
		for i := range set {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		ep.sendTo[s] = idx
		ep.peersOut = append(ep.peersOut, s)
	}
	sort.Ints(ep.peersOut)
	for _, j := range ep.halo {
		s := ep.owner[j]
		ep.recvFrom[s] = append(ep.recvFrom[s], j)
	}
	for s := range ep.recvFrom {
		ep.peersIn = append(ep.peersIn, s)
	}
	sort.Ints(ep.peersIn)

	for _, i := range ep.mine {
		z := t.LeafZones(i)
		if boundary[i] {
			ep.boundaryZones += z
		} else {
			ep.interiorZones += z
		}
	}
	return ep
}

// needers returns the ranks that keep leaf i fresh under this epoch: its
// owner plus every rank owning a neighbour.
func (ep *epoch) needers(i int) []int {
	set := map[int]bool{ep.owner[i]: true}
	for _, j := range ep.neigh[i] {
		set[ep.owner[j]] = true
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// setEpoch installs a new partition generation and re-derives the
// pooled per-peer halo send buffers from its exchange plan (sized once
// here so the steady-state step loop packs without allocating).
func (r *rankRun) setEpoch(ep *epoch) {
	r.ep = ep
	r.haloPhase = 0
	r.haloSend = make(map[int][2][]float64, len(ep.peersOut))
	for _, dst := range ep.peersOut {
		size := 0
		for _, i := range ep.sendTo[dst] {
			size += len(r.t.LeafRawU(i))
		}
		r.haloSend[dst] = [2][]float64{
			make([]float64, 0, size),
			make([]float64, 0, size),
		}
	}
	r.maskSend, r.maskPhase = nil, 0
	if r.cfg.Core.FailSafe {
		// Fail-safe runs swap troubled-cell masks over the same exchange
		// plan every stage (packed 8 cells per word, ~1/40 of the halo
		// payload); double-buffered by parity like haloSend.
		r.maskSend = make(map[int][2][]float64, len(ep.peersOut))
		for _, dst := range ep.peersOut {
			words := 0
			for _, i := range ep.sendTo[dst] {
				words += (len(r.t.LeafFSMask(i)) + 7) / 8
			}
			r.maskSend[dst] = [2][]float64{
				make([]float64, 0, words),
				make([]float64, 0, words),
			}
		}
	}
}

// rankRun is one rank's goroutine: a full tree replica advanced in
// lockstep with its peers.
type rankRun struct {
	t    *amr.Tree
	comm *cluster.Comm
	opts *Options
	ep   *epoch
	rank int
	rate float64

	// Problem identity kept for rebuilding the tree after a rank failure.
	p   *testprob.Problem
	nbx int
	cfg amr.Config

	// active is the agreed survivor set (ascending world ranks); it only
	// shrinks, and every shrink passes through a fault-tolerant
	// collective so all survivors agree.
	active []int

	// Buddy-checkpoint generations, two deep. ckCur is the newest
	// generation whose ring exchange completed on this rank; ckPrev the
	// one before it. A chaos-interrupted ring exchange leaves some ranks
	// committed at generation S and the aborters at the previous one, so
	// recovery first agrees on min(ckCur.steps) over the survivors and
	// every rank serves that generation from whichever slot holds it
	// (lockstep checkpointing makes the two possibilities exhaustive
	// under the one-fault-per-window model). On the perfect default
	// fabric the ring never aborts and ckCur is the only slot ever read.
	ckCur  ckSlot
	ckPrev ckSlot

	// Transport-mode recovery state: dirty is set when a protocol phase
	// unwound on ErrInterrupted/ErrRankFailed and the loop top must run a
	// recovery; shrinkEras counts recoveries entered via the (alarm-free)
	// collective shrink path, so era = acknowledged alarm generation +
	// shrinkEras stays lockstep-agreed.
	dirty      bool
	shrinkEras int

	// hooks hands exchangeMasks and exchangeHalos to amr.Tree.StepLeaves;
	// bound once per rank (they reach the tree and the epoch through r),
	// so the step loop does not allocate them.
	hooks core.StepHooks

	// Pooled exchange buffers. The channel transport does not copy
	// payloads, so a buffer may only be repacked once its previous
	// receiver has provably finished reading it:
	//   - haloSend alternates two buffers per peer by phase parity; a
	//     peer posts its phase-s+1 message only after finishing its
	//     phase-s receives, and we repack the parity-s buffer only after
	//     receiving that s+1 message, so reuse at s+2 is race-free.
	//   - migPack and the checkpoint slots' own sets are reused across
	//     generations separated by the loop-top FTAllReduceMin
	//     collective, which the receiver can only reach after consuming
	//     (copying out of) the payload.
	// setEpoch re-derives the halo buffers whenever the plan changes.
	haloSend  map[int][2][]float64
	haloPhase int
	maskSend  map[int][2][]float64 // fail-safe troubled-cell masks, same parity discipline
	maskPhase int
	migPack   map[int][]float64

	clock       float64
	rebalClock  float64
	rebalReal   time.Duration
	imbAccum    float64
	execSteps   int
	regrids     int
	rebalances  int
	migBlocks   int
	migBytes    int64
	checkpoints int
	ckBytes     int64
	ckClock     float64
	recoveries  int
	recomputed  int
	recClock    float64
	recReal     time.Duration
	maxLevelCfg int
}

// ckSlot is one complete buddy-checkpoint generation: the record set of
// this rank's owned leaves, the ring predecessor's set, and the tree
// counters needed to restart from it. valid is false until the
// generation's ring exchange completed on this rank.
type ckSlot struct {
	own       []float64
	buddy     []float64
	buddyRank int
	steps     int
	time      float64
	zu        int64
	valid     bool
}

// checkpoint encodes this rank's owned leaves and swaps record sets around
// the ring of active ranks, so each rank's segment survives on its ring
// successor. Lockstep guarantees every active rank checkpoints at the
// same tree step, and a victim that dies at this loop top dies *after*
// its send, so the generation is always complete (the receive drains
// messages a rank posted before dying).
//
// The generation is staged: the slots rotate (prev ← cur ← new) only
// after the ring receive succeeds. An abort (deadline or alarm on the
// lossy transport) recycles ckPrev's storage as scrap and leaves ckCur
// — the generation recovery will agree on — untouched.
func (r *rankRun) checkpoint() error {
	clock0 := r.clock
	stage := r.ckPrev // recycle the oldest slot's storage
	r.ckPrev.valid = false
	// The set survives in a buddy's memory and crosses the simulated
	// network; its CRC word lets the rebuild reject a damaged
	// contribution instead of installing it.
	stage.own = r.t.AppendLeafRecords(stage.own[:0], r.ep.mine)
	stage.steps = r.t.Steps()
	stage.time = r.t.Time()
	stage.zu = r.t.ZoneUpdates()
	stage.buddy = stage.buddy[:0]
	stage.buddyRank = -1
	if len(r.active) > 1 {
		pos := 0
		for k, a := range r.active {
			if a == r.rank {
				pos = k
				break
			}
		}
		next := r.active[(pos+1)%len(r.active)]
		prev := r.active[(pos+len(r.active)-1)%len(r.active)]
		// own goes out without a copy, like migPack: the slot is rewritten
		// two generations later, past collectives the receiver reaches
		// only after copying the set into its buddy slot.
		r.comm.Send(next, tagCheckpoint, stage.own, r.clock)
		r.ckBytes += int64(8 * len(stage.own))
		got, err := r.recv(prev, tagCheckpoint)
		if err != nil {
			return err
		}
		stage.buddy = append(stage.buddy, got...)
		stage.buddyRank = prev
	}
	stage.valid = true
	r.ckPrev = r.ckCur
	r.ckCur = stage
	r.checkpoints++
	r.ckClock += r.clock - clock0
	return nil
}

// recoverFromFailure rebuilds the hierarchy from the latest checkpoint
// generation after the dt collective reported a shrunken survivor set:
// every survivor contributes its own record set — plus the victim's, held
// by its ring successor — rebuilds the tree bit-exactly at the checkpoint
// step (amr.TreeFromLeafBlobs installs U and W verbatim, no re-recover),
// and re-partitions the Morton curve over the survivors. Because the
// distributed run is invariant to the partition, replaying the lost
// window over the survivor set reproduces the fault-free trajectory to
// the last bit.
func (r *rankRun) recoverFromFailure(survivors []int) error {
	start := time.Now()
	clock0 := r.clock

	// Agree on the restore generation: the newest one complete on every
	// survivor. A rank whose ring exchange aborted mid-checkpoint is
	// still at the previous generation, so the minimum of the committed
	// step counts is held by everyone — from ckCur on the ranks that
	// aborted, from ckPrev on the ranks that had already rotated. (On
	// the default fabric the ring never aborts and this reduces to
	// everyone's identical ckCur.)
	curSteps := -1.0
	if r.ckCur.valid {
		curSteps = float64(r.ckCur.steps)
	}
	targetF, _, err := r.comm.FTAllReduceMin(curSteps, survivors)
	if err != nil {
		return err
	}
	if targetF < 0 {
		return fmt.Errorf("damr: no complete checkpoint generation to recover from")
	}
	target := int(targetF)
	slot := &r.ckCur
	if !slot.valid || slot.steps != target {
		slot = &r.ckPrev
	}
	if !slot.valid || slot.steps != target {
		return fmt.Errorf("damr: checkpoint generations diverged (need step %d, have cur=%d/%v prev=%d/%v)",
			target, r.ckCur.steps, r.ckCur.valid, r.ckPrev.steps, r.ckPrev.valid)
	}
	r.recomputed += r.t.Steps() - slot.steps

	// The sets concatenate back to back into a fresh contribution: the
	// gather hands it to peers uncopied, and slot storage is rewritten by
	// later generations.
	contrib := append([]float64(nil), slot.own...)
	for _, d := range r.active {
		if !contains(survivors, d) && d == slot.buddyRank {
			contrib = append(contrib, slot.buddy...)
		}
	}
	parts, alive, err := r.comm.FTAllGather(contrib, survivors)
	if err != nil {
		return err
	}
	var sets [][]float64
	total := 0
	for _, part := range parts {
		if len(part) > 0 {
			sets = append(sets, part)
			total += 8 * len(part)
		}
	}
	// Coarse gather-and-rebroadcast charge, as in regridPhase.
	r.clock += 2 * r.opts.Net.Cost(total)

	t, err := amr.TreeFromLeafBlobs(r.p, r.nbx, r.cfg, sets, slot.time, slot.steps, slot.zu)
	if err != nil {
		return err
	}
	r.t = t
	r.active = alive
	r.setEpoch(buildEpoch(t, r.opts, r.maxLevelCfg, r.rank, r.active))
	r.recoveries++
	r.recClock += r.clock - clock0
	r.recReal += time.Since(start)
	return nil
}

// ptMult scales the base receive deadline for the point-to-point phases:
// longer than any deadline the FT collectives use, so a partitioned rank
// discovers its own exclusion (its loop-top collective deadline fires
// first, or the alarm wakes it) before it can falsely suspect a live peer
// here.
const ptMult = 3

// recv is the point-to-point receive of every damr protocol phase: the
// fault-tolerant receive, whose failure unwinds the caller to the loop
// top, plus the arrival charge on the virtual clock.
func (r *rankRun) recv(src, tag int) ([]float64, error) {
	data, stamp, err := r.comm.FTRecv(src, tag, ptMult)
	if err != nil {
		return nil, err
	}
	r.clock = r.opts.Net.Arrive(r.clock, stamp, len(data))
	return data, nil
}

// exchangeHalos is the Halos hook of amr.Tree.StepLeaves: post packed
// conserved blocks to every peer, recover the owned leaves while those are
// in flight, receive the symmetric sets, recover the replicas just
// installed, then refill the owned ghosts. Recovery is leaf-local and an
// owned leaf's needs nothing remote, so running it inside the wait changes
// no value; the virtual clock does not see it either — the charges below
// keep their place around the receives. Every call ends a stage (one per
// stage of the integrator), so each charges its stage's compute to the
// virtual clock, split around the halo wait by the overlap mode.
func (r *rankRun) exchangeHalos(_ int, recovered bool) error {
	t, ep := r.t, r.ep
	before, after := r.opts.Mode.Overlap(ep.interiorZones+ep.boundaryZones, ep.boundaryZones, float64(t.Dim()), r.rate)

	par := r.haloPhase & 1
	r.haloPhase++
	for _, dst := range ep.peersOut {
		pair := r.haloSend[dst]
		buf := pair[par][:0]
		for _, i := range ep.sendTo[dst] {
			buf = append(buf, t.LeafRawU(i)...)
		}
		pair[par] = buf
		r.haloSend[dst] = pair
		r.comm.Send(dst, tagHalo, buf, r.clock)
	}
	if !recovered {
		t.SyncSubset(ep.mine, nil)
	}
	r.clock += before
	for _, src := range ep.peersIn {
		data, err := r.recv(src, tagHalo)
		if err != nil {
			return err
		}
		off := 0
		for _, j := range ep.recvFrom[src] {
			raw := t.LeafRawU(j)
			copy(raw, data[off:off+len(raw)])
			off += len(raw)
		}
	}
	r.clock += after

	t.SyncSubset(ep.halo, ep.mine)
	return nil
}

// exchangeMasks is the Masks hook of amr.Tree.StepLeaves: it swaps the
// troubled-cell masks of boundary leaves with every halo peer —
// unconditionally, so a replica's mask can never go stale and no
// collective is needed to agree on skipping a clean stage's repair — and
// reports whether any local or received mask carries a flag; if one does,
// it fills the owned leaves' mask ghosts from the masks now current
// (amr.Tree.FillMaskGhostsOf). The payload packs 8 mask bytes per float64
// word into the parity send buffers sized by setEpoch, so a clean
// steady-state stage allocates nothing.
func (r *rankRun) exchangeMasks(_, localTroubled int) (bool, error) {
	t, ep := r.t, r.ep
	par := r.maskPhase & 1
	r.maskPhase++
	for _, dst := range ep.peersOut {
		pair := r.maskSend[dst]
		buf := pair[par][:0]
		for _, i := range ep.sendTo[dst] {
			buf = appendMaskWords(buf, t.LeafFSMask(i))
		}
		pair[par] = buf
		r.maskSend[dst] = pair
		r.comm.Send(dst, tagFSMask, buf, r.clock)
	}
	dirty := localTroubled > 0
	for _, src := range ep.peersIn {
		data, err := r.recv(src, tagFSMask)
		if err != nil {
			return false, err
		}
		off := 0
		for _, j := range ep.recvFrom[src] {
			m := t.LeafFSMask(j)
			if unpackMaskWords(data[off:], m) {
				dirty = true
			}
			off += (len(m) + 7) / 8
		}
	}
	if dirty {
		t.FillMaskGhostsOf(ep.mine)
	}
	return dirty, nil
}

// regridPhase is the distributed form of the regrid branch of
// amr.Tree.Step: regrid with owner-computed (allgathered) indicators,
// then — when the hierarchy changed — repartition, migrate, and refresh
// before the post-regrid sync. When nothing changed the phase reduces to
// the serial tree's plain post-regrid sync.
func (r *rankRun) regridPhase() error {
	start := time.Now()
	clock0 := r.clock
	t, ep, opts := r.t, r.ep, r.opts
	r.regrids++

	// Owners publish the refinement indicators of their leaves; the
	// replicated epoch tells every rank how to zip the parts back into a
	// global ref→value map without sending the refs themselves. The
	// fault-tolerant gather runs over the survivor set (failures fire
	// only at loop tops, so none can surface mid-phase) and its parts
	// are world-rank-indexed, matching ep.mines.
	vals := make([]float64, len(ep.mine))
	for k, i := range ep.mine {
		vals[k] = t.LeafIndicator(i)
	}
	parts, _, err := r.comm.FTAllGather(vals, r.active)
	if err != nil {
		return err
	}
	totalBytes := 0
	for _, p := range parts {
		totalBytes += 8 * len(p)
	}
	// Coarse gather-to-root-and-rebroadcast charge, matching the
	// transport's actual shape.
	r.clock += 2 * opts.Net.Cost(totalBytes)
	ind := make(map[amr.BlockRef]float64, len(ep.refs))
	for rk, part := range parts {
		for k, i := range ep.mines[rk] {
			ind[ep.refs[i]] = part[k]
		}
	}

	changed := t.RegridWithIndicators(ind)
	if !changed {
		// The serial stepper still re-syncs after a no-op regrid; match
		// its recover count on every fresh copy.
		t.ArmCFL(ep.mine)
		t.SyncSubset(ep.fresh, ep.mine)
		r.rebalClock += r.clock - clock0
		r.rebalReal += time.Since(start)
		return nil
	}
	r.rebalances++

	newEp := buildEpoch(t, opts, r.maxLevelCfg, r.rank, r.active)

	// Migration plan. The *authority* of a new leaf is the rank whose
	// old fresh set provably contains bit-exact data for it:
	//   unchanged leaf → its old owner;
	//   refined leaf   → the old owner of the ancestor that was a leaf
	//                    (prolongation read only that block's interior);
	//   coarsened leaf → the old owner of its Morton-first child (the
	//                    restriction read all children, and the corner-
	//                    inclusive halo ring of child 0 covers them).
	// The authority ships (U, W) to every rank that newly keeps the leaf
	// fresh; ranks whose old fresh set already covered an unchanged leaf
	// are skipped — their copies are in lockstep by construction.
	authority := func(ref amr.BlockRef) int {
		if i, ok := ep.index[ref]; ok {
			return ep.owner[i]
		}
		if c, ok := ep.index[ref.FirstChild(t.Dim())]; ok {
			return ep.owner[c]
		}
		for p := ref.Parent(t.Dim()); p.Level >= 0; p = p.Parent(t.Dim()) {
			if i, ok := ep.index[p]; ok {
				return ep.owner[i]
			}
		}
		panic(fmt.Sprintf("damr: no authority for block L%d (%d,%d)", ref.Level, ref.Bi, ref.Bj))
	}
	oldNeeders := func(ref amr.BlockRef) []int {
		i, ok := ep.index[ref]
		if !ok {
			return nil
		}
		return ep.needers(i)
	}
	sendPlan := map[int][]int{} // dst → new leaf indices this rank ships
	recvPlan := map[int][]int{} // src → new leaf indices this rank expects
	for i, ref := range newEp.refs {
		auth := authority(ref)
		// Each new owner counts the blocks it takes over from another
		// rank's authority — whether or not bytes had to move (the halo
		// often means the data is already resident).
		if newEp.owner[i] == r.rank && auth != r.rank {
			r.migBlocks++
		}
		old := oldNeeders(ref)
		for _, need := range newEp.needers(i) {
			if need == auth || contains(old, need) {
				continue
			}
			if auth == r.rank {
				sendPlan[need] = append(sendPlan[need], i)
			}
			if need == r.rank {
				recvPlan[auth] = append(recvPlan[auth], i)
			}
		}
	}
	for dst, idx := range sendPlan {
		// One pooled record buffer per destination: several sends can be
		// in flight within this phase, so they must not share storage.
		r.migPack[dst] = t.AppendLeafRecords(r.migPack[dst][:0], idx)
		r.migBytes += int64(8 * len(r.migPack[dst]))
		r.comm.Send(dst, tagMigrate, r.migPack[dst], r.clock)
	}
	for _, src := range sortedKeys(recvPlan) {
		payload, err := r.recv(src, tagMigrate)
		if err != nil {
			return err
		}
		if _, err := t.InstallLeafRecords(payload); err != nil {
			return fmt.Errorf("damr: decode migration from rank %d: %w", src, err)
		}
	}

	// Post-regrid sync on the new fresh set (the serial tree recovers
	// every leaf here; each fresh copy applies the same single recover).
	t.ArmCFL(newEp.mine)
	t.SyncSubset(newEp.fresh, newEp.mine)
	r.setEpoch(newEp)
	r.rebalClock += r.clock - clock0
	r.rebalReal += time.Since(start)
	return nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func sortedKeys(m map[int][]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// appendMaskWords packs a troubled-cell mask into the transport payload,
// 8 mask bytes per float64 word (little-endian within the word,
// zero-padded tail). Lengths are implied by the epoch's leaf sets, so no
// prefix is needed.
func appendMaskWords(dst []float64, m []uint8) []float64 {
	for off := 0; off < len(m); off += 8 {
		var word uint64
		for k := 0; k < 8 && off+k < len(m); k++ {
			word |= uint64(m[off+k]) << (8 * k)
		}
		dst = append(dst, math.Float64frombits(word))
	}
	return dst
}

// unpackMaskWords inverts appendMaskWords into m, reading
// ceil(len(m)/8) words from the head of payload; it reports whether any
// flag was set.
func unpackMaskWords(payload []float64, m []uint8) bool {
	dirty := false
	for w := 0; w*8 < len(m); w++ {
		bits := math.Float64bits(payload[w])
		if bits != 0 {
			dirty = true
		}
		for k := 0; k < 8; k++ {
			if i := w*8 + k; i < len(m) {
				m[i] = byte(bits >> (8 * k))
			}
		}
	}
	return dirty
}

// errKilled marks the expected exit of a rank killed by fault
// injection; Run treats it as a successful (if silent) return.
var errKilled = errors.New("damr: rank killed by fault injection")

// Run advances problem p on a hierarchy of nbx root blocks distributed
// over opts.Ranks ranks and returns the root rank's result, with every
// leaf's final data gathered into Result.Tree. The run is bit-identical
// to the equivalent single-rank amr.Tree run at any rank count — and,
// with checkpointing enabled, across an injected rank failure.
func Run(p *testprob.Problem, nbx int, cfg amr.Config, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if cfg.Core.FailSafeMaxFrac > 0 {
		// The demotion bound is a fraction of the whole hierarchy's zones;
		// a rank sees only the troubled count of the leaves it owns.
		return nil, fmt.Errorf("damr: FailSafeMaxFrac %v is not supported (the global troubled fraction is known to no single rank)",
			cfg.Core.FailSafeMaxFrac)
	}
	var world *cluster.World
	if opts.Transport != nil {
		world = cluster.NewWorldTransport(opts.Ranks, *opts.Transport)
	} else {
		world = cluster.NewWorld(opts.Ranks)
	}
	defer world.Close()
	results := make([]*Result, opts.Ranks)
	errs := make([]error, opts.Ranks)
	var wg sync.WaitGroup
	for rank := 0; rank < opts.Ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[rank] = fmt.Errorf("damr: rank %d: %v", rank, rec)
				}
			}()
			results[rank], errs[rank] = runRank(world.Comm(rank), p, nbx, cfg, &opts)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil && !errors.Is(err, errKilled) {
			return nil, fmt.Errorf("damr: rank %d: %w", rank, err)
		}
	}
	// The gather root is the lowest surviving rank — rank 0 unless it was
	// the fault victim.
	for _, res := range results {
		if res != nil && res.Tree != nil {
			if nc := world.NetCounters(); nc != nil {
				snap := nc.Snapshot()
				res.Net = &snap
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("damr: no rank produced a result")
}

// newRankRun builds one rank's replica and its initial epoch — the
// state runRank steps from (split out so tests can drive single steps).
func newRankRun(comm *cluster.Comm, p *testprob.Problem, nbx int, cfg amr.Config, opts *Options) (*rankRun, error) {
	// Every rank builds the same replica: NewTree is deterministic, so no
	// initial exchange is needed — all copies start fresh everywhere.
	t, err := amr.NewTree(p, nbx, cfg)
	if err != nil {
		return nil, err
	}
	rank := comm.Rank()
	active := make([]int, opts.Ranks)
	for i := range active {
		active[i] = i
	}
	r := &rankRun{
		t: t, comm: comm, opts: opts, rank: rank,
		rate:        cluster.ZoneRate,
		maxLevelCfg: cfg.MaxLevel,
		p:           p, nbx: nbx, cfg: cfg,
		active:  active,
		migPack: map[int][]float64{},
	}
	r.hooks = core.StepHooks{Masks: r.exchangeMasks, Halos: r.exchangeHalos}
	r.ckCur.buddyRank = -1
	r.ckPrev.buddyRank = -1
	if len(opts.RankRates) > 0 {
		r.rate = opts.RankRates[rank]
	}
	r.setEpoch(buildEpoch(t, opts, cfg.MaxLevel, rank, r.active))
	return r, nil
}

func runRank(comm *cluster.Comm, p *testprob.Problem, nbx int, cfg amr.Config, opts *Options) (*Result, error) {
	r, err := newRankRun(comm, p, nbx, cfg, opts)
	if err != nil {
		return nil, err
	}
	tEnd := p.TEnd
	if opts.TEnd > 0 {
		tEnd = opts.TEnd
	}
	start := time.Now()
	// Every protocol phase of an iteration returns its error to this one
	// site, so none can skip the recovery unwind.
	for iters := 0; iters < 1_000_000; iters++ {
		res, err := r.iterate(tEnd, start)
		if err != nil {
			if err = r.unwind(err); err != nil {
				return nil, err
			}
			continue // recover at the loop top, then replay the lost window
		}
		if res != nil {
			return res, nil
		}
	}
	return nil, fmt.Errorf("damr: step budget exhausted")
}

// unwind routes a protocol-phase error. On the lossy transport
// self-exclusion is the clean victim exit; an interrupt or an observed
// peer death marks the rank dirty and returns nil, so the next iteration
// runs the recovery; anything else is fatal. On the default fabric every
// error is fatal.
func (r *rankRun) unwind(err error) error {
	if r.opts.Transport == nil {
		return err
	}
	if errors.Is(err, cluster.ErrSelfExcluded) || r.comm.Failed(r.rank) {
		return errKilled
	}
	if errors.Is(err, cluster.ErrInterrupted) || errors.Is(err, cluster.ErrRankFailed) {
		r.dirty = true
		return nil
	}
	return err
}

// iterate runs one pass of the step loop: recovery when one is due, else
// termination, checkpoint, fault trigger, the dt collective, one step and
// the regrid on its cadence. It returns the Result once the run is
// complete. Termination, checkpointing, regrids, and the fault trigger
// all key off the tree's committed step count, so a recovery that rewinds
// the tree transparently replays the lost window.
func (r *rankRun) iterate(tEnd float64, start time.Time) (*Result, error) {
	comm, opts := r.comm, r.opts
	transport := opts.Transport != nil
	if transport {
		// Revocation check: an alarm raised since this rank's last
		// recovery point — or a phase this rank itself unwound from,
		// dirty — sends it straight into recovery over the survivor
		// set. Kill happens-before Alarm on the detector, so by the
		// time any rank observes the new generation the Failed flags
		// identify the same victim everywhere, and no agreement round
		// is needed. A rank that finds *itself* among the failed was
		// presumed dead by its peers (partition or silence); it bows
		// out like a killed rank.
		if gen, moved := comm.AckAlarm(); r.dirty || moved {
			r.dirty = false
			survivors := make([]int, 0, len(r.active))
			for _, a := range r.active {
				if !comm.Failed(a) {
					survivors = append(survivors, a)
				}
			}
			if !contains(survivors, r.rank) {
				return nil, errKilled
			}
			// The era is derived from lockstep-agreed state, so every
			// survivor lands on the same value and the receive path
			// can discard all traffic of the aborted phase.
			comm.SetEra(gen + uint64(r.shrinkEras))
			return nil, r.recoverFromFailure(survivors)
		}
	}
	done := false
	if opts.Steps > 0 {
		done = r.t.Steps() >= opts.Steps
	} else {
		done = r.t.Time() >= tEnd-1e-14
	}
	if done {
		// An error here unwinds like any other: recover, replay the lost
		// window, finalize again.
		return r.finalize(time.Since(start))
	}
	if opts.CheckpointEvery > 0 && r.t.Steps()%opts.CheckpointEvery == 0 {
		if err := r.checkpoint(); err != nil {
			return nil, err
		}
	}
	if f := opts.Fault; f != nil && r.rank == f.Rank && r.t.Steps() == f.AfterStep {
		comm.Kill()
		return nil, errKilled
	}
	dt, alive, err := comm.FTAllReduceMin(r.t.MaxDtOf(r.ep.mine), r.active)
	if err != nil {
		return nil, err
	}
	r.clock += opts.Net.AllReduceCost(len(r.active))
	if len(alive) < len(r.active) {
		// A peer died: restore the checkpoint generation over the
		// survivors and replay (the loop top re-checkpoints first,
		// restoring buddy redundancy on the new ring).
		if transport {
			// This recovery is entered without an alarm, so it bumps
			// the era through the shrink count instead — the shrink is
			// agreed through the collective, so the count stays
			// lockstep too.
			r.shrinkEras++
			comm.AdvanceEra()
		}
		return nil, r.recoverFromFailure(alive)
	}
	if opts.Steps == 0 && r.t.Time()+dt > tEnd {
		dt = tEnd - r.t.Time()
	}
	// One global CFL step: every fresh leaf follows the operation sequence
	// of the serial tree, with this rank's exchanges as the two hooks.
	if err := r.t.StepLeaves(r.ep.sols, dt, r.hooks); err != nil {
		return nil, err
	}
	r.imbAccum += r.ep.imbalance
	r.execSteps++
	if r.t.Steps()%r.t.RegridEvery() == 0 {
		return nil, r.regridPhase()
	}
	return nil, nil
}

// finalize runs the end-of-run collectives — the per-rank stats gather
// and the final leaf gather onto the lowest surviving rank — and builds
// the Result. On the lossy transport an error here unwinds to the step
// loop like any phase error: recovery rewinds the tree below the
// termination condition, the lost window replays, and finalize runs
// again in the new era (the root discards the aborted attempt's frames
// by their stale era).
func (r *rankRun) finalize(real time.Duration) (*Result, error) {
	t := r.t
	comm := r.comm
	opts := r.opts

	// Diagnostics (uncharged, like the uniform-grid driver): one
	// fault-tolerant gather carries every per-rank stat, folded locally.
	// A killed rank contributes nothing — its pre-failure work simply
	// drops out of the sums, which the recovery replay re-earns.
	stats := []float64{
		r.clock, r.rebalClock, float64(t.ZoneUpdates()),
		float64(r.migBlocks), float64(r.migBytes),
		float64(r.ckBytes), r.ckClock, r.recClock, float64(r.recomputed),
		float64(t.TroubledCells()), float64(t.RepairedCells()),
	}
	parts, alive, err := comm.FTAllGather(stats, r.active)
	if err != nil {
		return nil, err
	}
	r.active = alive
	fold := func(k int, sum bool) float64 {
		out := 0.0
		for _, p := range parts {
			if p == nil {
				continue
			}
			if sum {
				out += p[k]
			} else if p[k] > out {
				out = p[k]
			}
		}
		return out
	}

	// Gather every owned leaf's final (U, W) onto the lowest surviving
	// rank so its replica becomes globally fresh — deliberately without
	// a re-sync, which would apply one recover more than the reference.
	root := r.active[0]
	if r.rank != root {
		comm.Send(root, tagGather, t.AppendLeafRecords(nil, r.ep.mine), 0)
		return &Result{}, nil
	}
	for _, src := range r.active[1:] {
		payload, _, err := r.comm.FTRecv(src, tagGather, ptMult) // uncharged, like the stats
		if err != nil {
			return nil, err
		}
		if _, err := t.InstallLeafRecords(payload); err != nil {
			return nil, err
		}
	}
	imb := 0.0
	if r.execSteps > 0 {
		imb = r.imbAccum / float64(r.execSteps)
	}
	return &Result{
		Ranks: opts.Ranks, Mode: opts.Mode, Steps: t.Steps(),
		RealTime: real, VirtualTime: fold(0, false),
		TotalMass:   t.TotalMass(),
		ZoneUpdates: int64(fold(2, true)),
		Leaves:      t.NumLeaves(),
		MaxLevel:    t.MaxLevelInUse(),
		Regrids:     r.regrids, Rebalances: r.rebalances,
		MigratedBlocks: int(fold(3, true)), MigratedBytes: int64(fold(4, true)),
		RebalanceTime: r.rebalReal, RebalanceVirtual: fold(1, false),
		Imbalance:         imb,
		Checkpoints:       r.checkpoints,
		CheckpointBytes:   int64(fold(5, true)),
		CheckpointVirtual: fold(6, false),
		Recoveries:        r.recoveries,
		Survivors:         len(r.active),
		RecomputedSteps:   int(fold(8, false)),
		RecoveryVirtual:   fold(7, false),
		RecoveryReal:      r.recReal,
		TroubledCells:     int64(fold(9, true)),
		RepairedCells:     int64(fold(10, true)),
		Tree:              t,
	}, nil
}
