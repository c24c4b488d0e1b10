package amr

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"rhsc/internal/core"
	"rhsc/internal/durable"
	"rhsc/internal/output"
	"rhsc/internal/testprob"
)

// leafRecord is one leaf's identity and conserved data in a checkpoint.
// W is only populated by the block-migration path (see EncodeLeaves):
// primitive recovery seeds its Newton iteration with the previous
// pressure, so a migrated replica must inherit the owner's primitives to
// continue bit-identically. Checkpoints leave W nil and re-recover on
// load; gob tolerates the absent field in either direction.
type leafRecord struct {
	Level, Bi, Bj int
	U             []float64
	W             []float64
}

// treeCheckpoint is the gob payload of a hierarchy snapshot.
type treeCheckpoint struct {
	Problem     string
	BlockN      int
	MaxLevel    int
	RefineTol   float64
	CoarsenTol  float64
	RegridEvery int
	Nbx, Nby    int
	Time        float64
	Steps       int
	ZoneUpdates int64
	Leaves      []leafRecord
}

// Save serialises the tree structure and every leaf's conserved state.
// Loads from it re-recover primitives, so a restarted run is accurate
// but not bit-identical; use SaveExact when exact continuation matters.
func (t *Tree) Save(w io.Writer) error { return t.save(w, false) }

// SaveExact serialises the tree structure plus every leaf's conserved
// AND primitive fields (including ghosts), so Load continues the run
// bit-identically — the property checkpoint-based preemption relies on.
func (t *Tree) SaveExact(w io.Writer) error { return t.save(w, true) }

func (t *Tree) save(w io.Writer, prims bool) error {
	cp := treeCheckpoint{
		Problem:     t.prob.Name,
		BlockN:      t.cfg.BlockN,
		MaxLevel:    t.cfg.MaxLevel,
		RefineTol:   t.cfg.RefineTol,
		CoarsenTol:  t.cfg.CoarsenTol,
		RegridEvery: t.cfg.RegridEvery,
		Nbx:         t.nbx,
		Nby:         t.nby,
		Time:        t.t,
		Steps:       t.steps,
		ZoneUpdates: t.zoneUpdates,
	}
	for _, n := range t.leaves {
		raw := n.sol.G.U.Raw()
		rec := leafRecord{Level: n.level, Bi: n.bi, Bj: n.bj,
			U: append([]float64(nil), raw...)}
		if prims {
			rec.W = append([]float64(nil), n.sol.G.W.Raw()...)
		}
		cp.Leaves = append(cp.Leaves, rec)
	}
	// Frame the payload (per-chunk CRC32C + sealed footer) so torn
	// writes and bit rot surface as ErrCheckpointCorrupt at load time.
	fw := durable.NewWriter(w)
	if err := gob.NewEncoder(fw).Encode(&cp); err != nil {
		return err
	}
	return fw.Seal()
}

// Load rebuilds a tree from a checkpoint. The problem must match the one
// the checkpoint was written from; the numerical method comes from core
// (which must produce the same ghost width the checkpoint's blocks were
// sized for).
//
// Failures are classified with the output package's checkpoint error
// taxonomy: an undecodable payload wraps output.ErrCheckpointCorrupt;
// a decodable payload whose problem, structure or block shapes do not
// fit wraps output.ErrCheckpointMismatch. The serving layer uses this
// to distinguish fatal resume failures from transient I/O.
func Load(r io.Reader, coreCfg core.Config) (*Tree, error) {
	// Save always frames; a stream without the frame header is rejected
	// as corrupt here.
	framed, err := durable.NewReader(r)
	if err != nil {
		return nil, err
	}
	var cp treeCheckpoint
	if err := gob.NewDecoder(framed).Decode(&cp); err != nil {
		return nil, output.CorruptError("amr: decode checkpoint", err)
	}
	// gob may leave the frame tail unread; Verify rules out a torn tail
	// masquerading as a clean load.
	if err := framed.Verify(); err != nil {
		return nil, output.CorruptError("amr: verify checkpoint frame", err)
	}
	p, err := testprob.ByName(cp.Problem)
	if err != nil {
		return nil, output.MismatchError("amr: checkpoint problem", err)
	}
	cfg := Config{
		Core:        coreCfg,
		BlockN:      cp.BlockN,
		MaxLevel:    cp.MaxLevel,
		RefineTol:   cp.RefineTol,
		CoarsenTol:  cp.CoarsenTol,
		RegridEvery: cp.RegridEvery,
	}
	if cp.BlockN < 2*coreCfg.Recon.Ghost() || cp.Nbx < 1 || cp.Nby < 1 {
		return nil, output.MismatchError("amr: checkpoint layout",
			fmt.Errorf("block size %d (ghost %d), roots %dx%d",
				cp.BlockN, coreCfg.Recon.Ghost(), cp.Nbx, cp.Nby))
	}
	t, err := newSkeleton(p, cfg, cp.Nbx, cp.Nby)
	if err != nil {
		return nil, err
	}
	if err := t.installRecords(cp.Leaves, cp.Time); err != nil {
		return nil, output.MismatchError("amr: checkpoint structure", err)
	}
	t.t = cp.Time
	t.steps = cp.Steps
	t.zoneUpdates = cp.ZoneUpdates
	// An exact checkpoint (SaveExact) carries every leaf's primitives, so
	// the state is already consistent and re-recovery would only reseed
	// the Newton guesses away from the uninterrupted trajectory. Plain
	// checkpoints carry none: re-recover. (Mixed records never occur —
	// save writes all or none — but any W-less leaf forces the safe path.)
	exact := len(cp.Leaves) > 0
	for _, rec := range cp.Leaves {
		if rec.W == nil {
			exact = false
			break
		}
	}
	if !exact {
		t.sync()
	}
	return t, nil
}

// BlockSize returns the cells per block side the tree was built with.
func (t *Tree) BlockSize() int { return t.cfg.BlockN }

// Fingerprint hashes the complete hierarchy state — step and time
// counters plus every leaf's identity, conserved and primitive raw
// fields (ghosts included) — into a 64-bit FNV-1a digest. Two trees
// with equal fingerprints evolved through the same code are bitwise
// interchangeable; the preemption tests use this to pin
// checkpoint→park→resume round trips to uninterrupted runs.
func (t *Tree) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(t.steps))
	put(math.Float64bits(t.t))
	leaves := append([]*node(nil), t.leaves...)
	sort.Slice(leaves, func(i, j int) bool {
		a, b := leaves[i], leaves[j]
		if a.level != b.level {
			return a.level < b.level
		}
		if a.bj != b.bj {
			return a.bj < b.bj
		}
		return a.bi < b.bi
	})
	for _, n := range leaves {
		put(uint64(n.level))
		put(uint64(n.bi))
		put(uint64(n.bj))
		for _, v := range n.sol.G.U.Raw() {
			put(math.Float64bits(v))
		}
		for _, v := range n.sol.G.W.Raw() {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// newSkeleton builds a level-0 hierarchy without bootstrap refinement:
// NewTree's construction minus the initial condition and regrid rounds.
func newSkeleton(p *testprob.Problem, cfg Config, nbx, nby int) (*Tree, error) {
	if p.Dim > 2 {
		return nil, fmt.Errorf("amr: checkpointed problem is %d-D", p.Dim)
	}
	t := &Tree{
		cfg: cfg, prob: p, dim: p.Dim, nbx: nbx, nby: nby,
		x0: p.X0, x1: p.X1, y0: p.Y0, y1: p.Y1,
		nodes: make(map[key]*node),
	}
	for bj := 0; bj < nby; bj++ {
		for bi := 0; bi < nbx; bi++ {
			n := &node{level: 0, bi: bi, bj: bj}
			if err := t.attachSolver(n); err != nil {
				return nil, err
			}
			t.roots = append(t.roots, n)
			t.nodes[key{0, bi, bj}] = n
		}
	}
	return t, nil
}

// installRecords recreates the refinement structure implied by the
// records (refining ancestors level by level) and installs each record's
// data: U always, W when the record carries primitives. Together the
// records must cover every leaf of one consistent snapshot.
func (t *Tree) installRecords(recs []leafRecord, time float64) error {
	recs = append([]leafRecord(nil), recs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Level < recs[j].Level })
	for _, rec := range recs {
		// Walk down from the containing root, refining as needed.
		for lvl := 0; lvl < rec.Level; lvl++ {
			shift := rec.Level - lvl
			bi := rec.Bi >> shift
			bj := rec.Bj
			if t.dim >= 2 {
				bj = rec.Bj >> shift
			}
			anc, ok := t.nodes[key{lvl, bi, bj}]
			if !ok {
				return fmt.Errorf("amr: checkpoint structure broken at L%d (%d,%d)", lvl, bi, bj)
			}
			if anc.leaf() {
				if err := t.refine(anc); err != nil {
					return err
				}
			}
		}
	}
	t.rebuildLeaves()

	installed := 0
	for _, rec := range recs {
		n, ok := t.nodes[key{rec.Level, rec.Bi, rec.Bj}]
		if !ok || !n.leaf() {
			return fmt.Errorf("amr: checkpoint leaf L%d (%d,%d) missing after rebuild",
				rec.Level, rec.Bi, rec.Bj)
		}
		raw := n.sol.G.U.Raw()
		if len(rec.U) != len(raw) {
			return fmt.Errorf("amr: leaf data size %d, grid needs %d", len(rec.U), len(raw))
		}
		copy(raw, rec.U)
		if rec.W != nil {
			if len(rec.W) != len(raw) {
				return fmt.Errorf("amr: leaf prim size %d, grid needs %d", len(rec.W), len(raw))
			}
			copy(n.sol.G.W.Raw(), rec.W)
		}
		n.sol.SetTime(time)
		// Direct writes to U/W bypass the solver's recovery bookkeeping;
		// drop any cached CFL reduction so MaxDt re-traverses.
		n.sol.InvalidateCFL()
		installed++
	}
	if installed != len(t.leaves) {
		return fmt.Errorf("amr: records carry %d leaves, tree rebuilt %d",
			installed, len(t.leaves))
	}
	return nil
}

// TreeFromLeafBlobs rebuilds a hierarchy from EncodeLeaves blobs that
// together cover every leaf of one consistent snapshot. Unlike Load it
// restores both conserved and primitive fields (including ghosts)
// bit-exactly and performs no re-recovery, so a restored run continues
// bit-identically to the run the blobs were taken from — the property
// the damr rank-failure recovery relies on. The problem, root block
// count and config must match the tree the blobs were encoded from.
func TreeFromLeafBlobs(p *testprob.Problem, nbx int, cfg Config,
	blobs [][]byte, time float64, steps int, zoneUpdates int64) (*Tree, error) {

	var recs []leafRecord
	for i, b := range blobs {
		// Buddy-checkpoint blobs are framed (damr wraps EncodeLeavesInto
		// output in a durable blob frame); verify integrity before
		// trusting a contribution. Raw blobs (direct EncodeLeaves use)
		// pass through unframed.
		if durable.IsFramed(b) {
			payload, err := durable.ExtractBlob(b)
			if err != nil {
				return nil, output.CorruptError(
					fmt.Sprintf("amr: leaf blob %d", i), err)
			}
			b = payload
		}
		var part []leafRecord
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&part); err != nil {
			return nil, output.CorruptError(
				fmt.Sprintf("amr: decode leaf blob %d", i), err)
		}
		recs = append(recs, part...)
	}
	t, err := newSkeleton(p, cfg, nbx, rootLayout(p, nbx))
	if err != nil {
		return nil, err
	}
	if err := t.installRecords(recs, time); err != nil {
		return nil, err
	}
	t.t = time
	t.steps = steps
	t.zoneUpdates = zoneUpdates
	return t, nil
}
