package amr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"rhsc/internal/core"
	"rhsc/internal/output"
	"rhsc/internal/testprob"
)

// fuzzTrees returns a tiny 1-D and a tiny 2-D tree — the fuzzer mutates
// and minimises whole encodings, so inputs stay a few KiB — each stepped
// twice inside one regrid window, so a fresh tree of the same config has
// the same leaves and a different state.
func fuzzTrees(tb testing.TB) []*Tree {
	tb.Helper()
	var out []*Tree
	for _, c := range []struct {
		p   *testprob.Problem
		nbx int
	}{{testprob.Sod, 2}, {testprob.Blast2D, 1}} {
		cfg := DefaultConfig(core.DefaultConfig())
		cfg.BlockN, cfg.MaxLevel, cfg.RegridEvery = 4, 1, 1<<20
		tr, err := NewTree(c.p, c.nbx, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := tr.Step(tr.MaxDt()); err != nil {
				tb.Fatal(err)
			}
		}
		out = append(out, tr)
	}
	return out
}

// freshTree builds the unstepped twin of a fuzzTrees tree.
func freshTree(tb testing.TB, src *Tree) *Tree {
	tb.Helper()
	tr, err := NewTree(src.prob, src.nbx, src.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// allocBytes returns the bytes fn allocates on the heap.
func allocBytes(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// classified reports whether err is one of the two checkpoint failure
// classes.
func classified(err error) bool {
	return errors.Is(err, output.ErrCheckpointCorrupt) || errors.Is(err, output.ErrCheckpointMismatch)
}

// truncations adds data and a few of its prefixes to the corpus.
func truncations(f *testing.F, data []byte) {
	f.Add(data)
	for _, cut := range []int{0, 7, 8, len(data) / 2, len(data) - 8, len(data) - 1} {
		if cut >= 0 && cut < len(data) {
			f.Add(data[:cut])
		}
	}
}

// FuzzDecodeLeaves feeds arbitrary bytes to DecodeLeaves on a 1-D and a
// 2-D tree. It must never panic; every error is a checkpoint corruption or
// mismatch and leaves the tree untouched; decoding allocates no more than
// the input's own size (plus the error); and a set it accepts re-encodes
// from the installed leaves to the same bytes — DecodeLeaves(EncodeLeaves(x))
// installs x bit for bit.
func FuzzDecodeLeaves(f *testing.F) {
	srcs := fuzzTrees(f)
	var dsts []*Tree
	for _, src := range srcs {
		dsts = append(dsts, freshTree(f, src))
		all, _ := src.EncodeLeaves(src.all)
		truncations(f, all)
		some, _ := src.EncodeLeaves([]int{src.NumLeaves() - 1, 0})
		f.Add(append(some, all...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dst := range dsts {
			fp := dst.Fingerprint()
			var err error
			used := allocBytes(func() { _, err = dst.DecodeLeaves(data) })
			if err != nil {
				if !classified(err) {
					t.Fatalf("unclassified error %v", err)
				}
				if dst.Fingerprint() != fp {
					t.Fatalf("rejected input (%v) changed the tree", err)
				}
				// The slack covers the error value and the page rounding of
				// a large allocation.
				if limit := uint64(len(data)) + 16<<10; used > limit {
					t.Fatalf("rejecting %d bytes allocated %d", len(data), used)
				}
				continue
			}
			words, _ := leWords(data)
			sets, _ := splitSets(words)
			var got bytes.Buffer
			for _, set := range sets {
				var idx []int
				withW := true
				forRecords([][]float64{set}, func(r leafRecord) error {
					n, _ := dst.leafFor(r)
					idx = append(idx, n.li)
					withW = withW && r.W != nil
					return nil
				})
				binary.Write(&got, binary.LittleEndian, dst.appendRecords(nil, idx, withW))
			}
			if !bytes.Equal(got.Bytes(), data) {
				t.Fatalf("installed leaves re-encode to %d different bytes", got.Len())
			}
		}
	})
}

// FuzzLoad feeds arbitrary bytes to Load. It must never panic; every error
// is a checkpoint corruption or mismatch; a rejected input allocates at
// most a small multiple of its size plus the durable reader's bounded
// chunk step; and a checkpoint it accepts saves back, in the same flavour,
// to the same bytes.
func FuzzLoad(f *testing.F) {
	for _, src := range fuzzTrees(f) {
		for _, exact := range []bool{false, true} {
			var buf bytes.Buffer
			if err := src.save(&buf, exact); err != nil {
				f.Fatal(err)
			}
			truncations(f, buf.Bytes())
		}
	}
	coreCfg := core.DefaultConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr *Tree
		var err error
		used := allocBytes(func() { tr, err = Load(bytes.NewReader(data), coreCfg) })
		if err != nil {
			if !classified(err) {
				t.Fatalf("unclassified error %v", err)
			}
			if limit := 16*uint64(len(data)) + 4<<20; used > limit {
				t.Fatalf("rejecting %d bytes allocated %d", len(data), used)
			}
			return
		}
		for _, exact := range []bool{false, true} {
			var buf bytes.Buffer
			if err := tr.save(&buf, exact); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(buf.Bytes(), data) {
				return
			}
		}
		t.Fatal("a loaded checkpoint does not save back to its own bytes")
	})
}
