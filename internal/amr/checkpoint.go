package amr

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"rhsc/internal/core"
	"rhsc/internal/durable"
	"rhsc/internal/output"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// treeHeader is the fixed binary head of a tree checkpoint (binary.Write,
// little-endian). NameLen bytes of problem name follow it, then the
// record set of every leaf as little-endian words (record.go), all inside
// one durable frame.
type treeHeader struct {
	BlockN, MaxLevel, RegridEvery, Nbx, Nby int64
	RefineTol, CoarsenTol, Time             float64
	Steps, ZoneUpdates, NameLen             int64
}

// maxNameLen bounds the problem name a checkpoint may declare.
const maxNameLen = 64

// Save serialises the tree structure and every leaf's conserved state.
// Loads from it re-recover primitives, so a restarted run is accurate
// but not bit-identical; use SaveExact when exact continuation matters.
func (t *Tree) Save(w io.Writer) error { return t.save(w, false) }

// SaveExact serialises the tree structure plus every leaf's conserved
// AND primitive fields (including ghosts), so Load continues the run
// bit-identically — the property checkpoint-based preemption relies on.
func (t *Tree) SaveExact(w io.Writer) error { return t.save(w, true) }

func (t *Tree) save(w io.Writer, prims bool) error {
	c := t.cfg
	h := treeHeader{int64(c.BlockN), int64(c.MaxLevel), int64(c.RegridEvery), int64(t.nbx), int64(t.nby),
		c.RefineTol, c.CoarsenTol, t.t,
		int64(t.steps), t.zoneUpdates, int64(len(t.prob.Name))}
	// Frame the payload (per-chunk CRC32C + sealed footer) so torn
	// writes and bit rot surface as ErrCheckpointCorrupt at load time.
	fw := durable.NewWriter(w)
	for _, part := range []any{&h, []byte(t.prob.Name), t.appendRecords(nil, t.all, prims)} {
		if err := binary.Write(fw, binary.LittleEndian, part); err != nil {
			return err
		}
	}
	return fw.Seal()
}

// Load rebuilds a tree from a checkpoint. The problem must match the one
// the checkpoint was written from; the numerical method comes from core
// (which must produce the same ghost width the checkpoint's blocks were
// sized for).
//
// Failures are classified with the output package's checkpoint error
// taxonomy: an undecodable payload — including one of any other format —
// wraps output.ErrCheckpointCorrupt; a decodable payload whose problem,
// structure or block shapes do not fit wraps output.ErrCheckpointMismatch.
// The serving layer uses this to distinguish fatal resume failures from
// transient I/O.
func Load(r io.Reader, coreCfg core.Config) (*Tree, error) {
	// Save always frames; a stream without the frame header is rejected
	// as corrupt here.
	framed, err := durable.NewReader(r)
	if err != nil {
		return nil, err
	}
	var h treeHeader
	if err := binary.Read(framed, binary.LittleEndian, &h); err != nil {
		return nil, output.CorruptError("amr: checkpoint header", err)
	}
	// Reading to EOF also validates the frame footer, so a torn tail
	// cannot pass as a clean load.
	rest, err := io.ReadAll(framed)
	if err != nil {
		return nil, output.CorruptError("amr: read checkpoint", err)
	}
	if h.NameLen < 0 || h.NameLen > maxNameLen || h.NameLen > int64(len(rest)) {
		return nil, output.CorruptError("amr: checkpoint header",
			fmt.Errorf("problem name of %d bytes", h.NameLen))
	}
	words, err := leWords(rest[h.NameLen:])
	if err != nil {
		return nil, err
	}
	sets, err := splitSets(words)
	if err != nil {
		return nil, err
	}

	p, err := testprob.ByName(string(rest[:h.NameLen]))
	if err != nil {
		return nil, output.MismatchError("amr: checkpoint problem", err)
	}
	// Every size is bounded by the input before a block is allocated.
	n, ghost := int64(len(words)), int64(coreCfg.Recon.Ghost())
	if h.BlockN < 2*ghost || h.BlockN > n || h.Nbx < 1 || h.Nbx > n || h.Nby < 1 || h.Nby > n ||
		h.MaxLevel < 0 || h.MaxLevel > maxLevelLimit || h.RegridEvery < 1 {
		return nil, output.MismatchError("amr: checkpoint layout",
			fmt.Errorf("block size %d (ghost %d), roots %dx%d, max level %d, regrid every %d",
				h.BlockN, ghost, h.Nbx, h.Nby, h.MaxLevel, h.RegridEvery))
	}
	cfg := Config{Core: coreCfg, BlockN: int(h.BlockN), MaxLevel: int(h.MaxLevel),
		RefineTol: h.RefineTol, CoarsenTol: h.CoarsenTol, RegridEvery: int(h.RegridEvery)}
	t, exact, err := rebuild(p, cfg, int(h.Nbx), int(h.Nby), sets, h.Time, int(h.Steps), h.ZoneUpdates)
	if err != nil {
		return nil, err
	}
	// An exact checkpoint (SaveExact) carries every leaf's primitives, so
	// the state is already consistent and re-recovery would only reseed
	// the Newton guesses away from the uninterrupted trajectory. Plain
	// checkpoints carry none: re-recover.
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

// newSkeleton builds the level-0 hierarchy of nbx×nby root blocks, with
// no data: NewTree's construction before the initial condition.
func newSkeleton(p *testprob.Problem, cfg Config, nbx, nby int) (*Tree, error) {
	if p.Dim > 2 {
		return nil, fmt.Errorf("amr: %d-D problems are not supported (quadtree refinement is 1-D/2-D)", p.Dim)
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

// rebuild builds the hierarchy that verified record sets describe over
// nbx×nby root blocks — refining each recorded leaf's ancestors, which
// does not depend on the record order — and installs every record's data:
// U always, W when carried. Together the records must cover every leaf of
// one consistent snapshot. Each record is matched against the block
// layout of cfg before any block is allocated, so what a rebuild
// allocates is bounded by the input's own size. It reports whether every
// record carried primitives.
func rebuild(p *testprob.Problem, cfg Config, nbx, nby int, sets [][]float64,
	time float64, steps int, zoneUpdates int64) (*Tree, bool, error) {

	mismatch := func(format string, args ...any) (*Tree, bool, error) {
		return nil, false, output.MismatchError("amr: leaf records", fmt.Errorf(format, args...))
	}
	side := cfg.BlockN + 2*cfg.Core.Recon.Ghost()
	slab := state.NComp * side
	if p.Dim >= 2 {
		slab *= side
	}
	leaves, fits, exact := 0, true, true
	forRecords(sets, func(r leafRecord) error {
		leaves++
		fits = fits && r.Level <= cfg.MaxLevel && len(r.U) == slab
		exact = exact && r.W != nil
		return nil
	})
	if !fits || leaves < nbx*nby {
		return mismatch("records do not fit %d root blocks of %d-word slabs to level %d", nbx*nby, slab, cfg.MaxLevel)
	}
	t, err := newSkeleton(p, cfg, nbx, nby)
	if err != nil {
		return mismatch("%v", err)
	}
	if err := forRecords(sets, func(r leafRecord) error {
		for lvl := 0; lvl < r.Level; lvl++ {
			shift := r.Level - lvl
			bi, bj := r.Bi>>shift, r.Bj
			if t.dim >= 2 {
				bj = r.Bj >> shift
			}
			anc, ok := t.nodes[key{lvl, bi, bj}]
			if !ok {
				return output.MismatchError("amr: leaf records",
					fmt.Errorf("structure broken at L%d (%d,%d)", lvl, bi, bj))
			}
			if err := t.refine(anc); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, false, err
	}
	t.rebuildLeaves()
	if err := forRecords(sets, func(r leafRecord) error {
		n, err := t.leafFor(r)
		if err == nil {
			n.install(r)
			n.sol.SetTime(time)
		}
		return err
	}); err != nil {
		return nil, false, err
	}
	if leaves != len(t.leaves) {
		return mismatch("records carry %d leaves, tree rebuilt %d", leaves, len(t.leaves))
	}
	t.t, t.steps, t.zoneUpdates = time, steps, zoneUpdates
	return t, exact && leaves > 0, nil
}

// TreeFromLeafBlobs rebuilds a hierarchy from AppendLeafRecords sets —
// one or more back to back per element — that together cover every leaf
// of one consistent snapshot. Unlike Load it restores both conserved and
// primitive fields (including ghosts) bit-exactly and performs no
// re-recovery, so a restored run continues bit-identically to the run
// the sets were taken from — the property the damr rank-failure recovery
// relies on. Every set's CRC word is verified before anything is built,
// so a damaged contribution is output.ErrCheckpointCorrupt. The problem,
// root block count and config must match the tree the sets were encoded
// from.
func TreeFromLeafBlobs(p *testprob.Problem, nbx int, cfg Config,
	parts [][]float64, time float64, steps int, zoneUpdates int64) (*Tree, error) {

	var sets [][]float64
	for _, part := range parts {
		s, err := splitSets(part)
		if err != nil {
			return nil, err
		}
		sets = append(sets, s...)
	}
	t, _, err := rebuild(p, cfg, nbx, rootLayout(p, nbx), sets, time, steps, zoneUpdates)
	return t, err
}
