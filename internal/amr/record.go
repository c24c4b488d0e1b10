package amr

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"rhsc/internal/durable"
	"rhsc/internal/output"
)

// A leaf record set is the one encoding of block state that leaves a tree:
// block migration, the final gather, buddy checkpoints and Save all carry
// it. It is a run of float64 words — the type every transport payload
// already is — laid out as
//
//	format | leaf count |
//	per leaf: Level | Bi | Bj | has-W (0 or 1) | slab length n | U[n] | W[n] if has-W |
//	CRC32C of every preceding word of the set
//
// Integers are stored as exact float64 values, not bit casts, and the
// slabs are the leaves' raw component-major storage, ghosts included, so
// every value crosses bit for bit. On disk and in the []byte view of
// EncodeLeaves the words are little-endian.
const (
	// recordFormat opens every set: "RHSR" in the high 32 bits, format
	// version 1 in the low 16. A set of any other format is corrupt.
	recordFormat = 0x5248_5352_0001

	// maxLevelLimit bounds a tree's MaxLevel (NewTree) and so every
	// record's level.
	maxLevelLimit = 12

	// recordHead is the per-leaf word count before the slabs; setMin the
	// words of a set of no leaves (format, count, CRC).
	recordHead = 5
	setMin     = 3
)

// leafRecord is one decoded leaf: its identity and slabs aliasing the set
// it was read from. W is nil when the record carries no primitives (plain
// Save); recovery then re-derives them.
type leafRecord struct {
	Level, Bi, Bj int
	U, W          []float64
}

// AppendLeafRecords appends the record set of the identified leaves —
// conserved and primitive slabs, ghosts included — to dst and returns the
// extended slice. It allocates only when dst is too small, so a sender
// reusing its buffer encodes a steady generation without allocating. The
// primitives travel because they seed the next con2prim Newton iteration:
// without them a migrated replica would recover from a different guess
// and drift off the owner's bit pattern.
func (t *Tree) AppendLeafRecords(dst []float64, idx []int) []float64 {
	return t.appendRecords(dst, idx, true)
}

func (t *Tree) appendRecords(dst []float64, idx []int, withW bool) []float64 {
	hasW := 0.0
	if withW {
		hasW = 1
	}
	need := setMin
	for _, i := range idx {
		need += recordHead + len(t.leaves[i].sol.G.U.Raw())*(1+int(hasW))
	}
	dst = slices.Grow(dst, need)
	start := len(dst)
	dst = append(dst, recordFormat, float64(len(idx)))
	for _, i := range idx {
		n := t.leaves[i]
		u := n.sol.G.U.Raw()
		dst = append(dst, float64(n.level), float64(n.bi), float64(n.bj), hasW, float64(len(u)))
		dst = append(dst, u...)
		if withW {
			dst = append(dst, n.sol.G.W.Raw()...)
		}
	}
	return append(dst, float64(durable.CRCWords(dst[start:])))
}

// intWord decodes an integer stored as a float64 word: it must be
// integral and within [0, max].
func intWord(v float64, max int) (int, bool) {
	if !(v >= 0 && v <= float64(max)) || v != math.Trunc(v) {
		return 0, false
	}
	return int(v), true
}

// checkRecords verifies the record set at the head of words without
// allocating: every integer word exact and in range, every declared count
// and slab inside the input, then the closing CRC. It returns the set's
// length in words.
func checkRecords(words []float64) (int, error) {
	bad := func(format string, args ...any) (int, error) {
		return 0, output.CorruptError("amr: leaf records", fmt.Errorf(format, args...))
	}
	if len(words) < setMin {
		return bad("set of %d words is shorter than its frame", len(words))
	}
	if words[0] != recordFormat {
		return bad("format word %v, want %v", words[0], float64(recordFormat))
	}
	// Every leaf needs at least its head words, which bounds the count by
	// the input before anything is sized from it.
	count, ok := intWord(words[1], (len(words)-setMin)/recordHead)
	if !ok {
		return bad("leaf count %v does not fit %d words", words[1], len(words))
	}
	off := 2
	for k := 0; k < count; k++ {
		if len(words)-1-off < recordHead {
			return bad("leaf %d: head runs past the set", k)
		}
		h := words[off : off+recordHead]
		_, okL := intWord(h[0], maxLevelLimit)
		_, okI := intWord(h[1], math.MaxInt32)
		_, okJ := intWord(h[2], math.MaxInt32)
		hasW, okW := intWord(h[3], 1)
		slab, okN := intWord(h[4], len(words))
		if !(okL && okI && okJ && okW && okN) {
			return bad("leaf %d: head %v out of range", k, h)
		}
		off += recordHead
		if len(words)-1-off < slab*(1+hasW) {
			return bad("leaf %d: %d-word slabs run past the set", k, slab)
		}
		off += slab * (1 + hasW)
	}
	crc, ok := intWord(words[off], math.MaxUint32)
	if !ok || uint32(crc) != durable.CRCWords(words[:off]) {
		return bad("crc word %v does not match the set", words[off])
	}
	return off + 1, nil
}

// splitSets verifies one or more record sets laid back to back and returns
// them; an empty input is no set and therefore corrupt.
func splitSets(words []float64) ([][]float64, error) {
	var sets [][]float64
	for {
		end, err := checkRecords(words)
		if err != nil {
			return nil, err
		}
		sets = append(sets, words[:end:end])
		if words = words[end:]; len(words) == 0 {
			return sets, nil
		}
	}
}

// forRecords calls fn on every record of verified sets, in order, and
// stops at its first error. The records' slabs alias the sets.
func forRecords(sets [][]float64, fn func(leafRecord) error) error {
	for _, set := range sets {
		count := int(set[1])
		for k, off := 0, 2; k < count; k++ {
			r := leafRecord{Level: int(set[off]), Bi: int(set[off+1]), Bj: int(set[off+2])}
			hasW, n := set[off+3] == 1, int(set[off+4])
			off += recordHead
			r.U = set[off : off+n : off+n]
			off += n
			if hasW {
				r.W = set[off : off+n : off+n]
				off += n
			}
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// leafFor returns the leaf of this tree a record installs into.
func (t *Tree) leafFor(r leafRecord) (*node, error) {
	n, ok := t.nodes[key{r.Level, r.Bi, r.Bj}]
	if !ok || !n.leaf() {
		return nil, output.MismatchError("amr: leaf records",
			fmt.Errorf("leaf L%d (%d,%d) is not a leaf here", r.Level, r.Bi, r.Bj))
	}
	if raw := n.sol.G.U.Raw(); len(r.U) != len(raw) {
		return nil, output.MismatchError("amr: leaf records",
			fmt.Errorf("leaf L%d (%d,%d) data size %d, grid needs %d", r.Level, r.Bi, r.Bj, len(r.U), len(raw)))
	}
	return n, nil
}

// install copies a record's slabs into leaf n: U always, W when carried.
func (n *node) install(r leafRecord) {
	copy(n.sol.G.U.Raw(), r.U)
	if r.W != nil {
		copy(n.sol.G.W.Raw(), r.W)
	}
	// The raw install bypassed the solver's recovery bookkeeping; a cached
	// CFL reduction would reflect the overwritten state.
	n.sol.InvalidateCFL()
}

// InstallLeafRecords installs record sets produced by AppendLeafRecords
// (one or more back to back) into the matching leaves of this tree and
// returns how many leaves they carried. The tree structure must already
// contain every recorded leaf. Every set is verified and every record
// matched before the first slab is copied, so input that fails installs
// nothing: a damaged set is output.ErrCheckpointCorrupt, one that does not
// fit this tree output.ErrCheckpointMismatch.
func (t *Tree) InstallLeafRecords(words []float64) (int, error) {
	sets, err := splitSets(words)
	if err != nil {
		return 0, err
	}
	count := 0
	if err := forRecords(sets, func(r leafRecord) error {
		count++
		_, err := t.leafFor(r)
		return err
	}); err != nil {
		return 0, err
	}
	return count, forRecords(sets, func(r leafRecord) error {
		n, _ := t.leafFor(r)
		n.install(r)
		return nil
	})
}

// EncodeLeaves is AppendLeafRecords as little-endian bytes, for callers
// that move bytes rather than words. The error is always nil.
func (t *Tree) EncodeLeaves(idx []int) ([]byte, error) {
	words := t.AppendLeafRecords(nil, idx)
	b := make([]byte, 8*len(words))
	for i, v := range words {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b, nil
}

// DecodeLeaves is InstallLeafRecords over little-endian bytes.
func (t *Tree) DecodeLeaves(data []byte) (int, error) {
	set, err := leWords(data)
	if err != nil {
		return 0, err
	}
	return t.InstallLeafRecords(set)
}

// leWords reads little-endian words; a length that is not whole words is
// corrupt.
func leWords(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, output.CorruptError("amr: leaf records", fmt.Errorf("%d bytes are not whole words", len(b)))
	}
	words := make([]float64, len(b)/8)
	for i := range words {
		words[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return words, nil
}
