package amr

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"rhsc/internal/core"
	"rhsc/internal/durable"
	"rhsc/internal/output"
	"rhsc/internal/testprob"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := DefaultConfig(core.DefaultConfig())
	cfg.MaxLevel = 2
	cfg.RegridEvery = 2
	tr, err := NewTree(testprob.Sod, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Advance(0.1); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Time() != tr.Time() {
		t.Errorf("time %v, want %v", restored.Time(), tr.Time())
	}
	if restored.NumLeaves() != tr.NumLeaves() {
		t.Errorf("leaves %d, want %d", restored.NumLeaves(), tr.NumLeaves())
	}
	if restored.MaxLevelInUse() != tr.MaxLevelInUse() {
		t.Errorf("max level %d, want %d", restored.MaxLevelInUse(), tr.MaxLevelInUse())
	}
	if rel := math.Abs(restored.TotalMass()-tr.TotalMass()) / tr.TotalMass(); rel > 1e-14 {
		t.Errorf("mass differs by %v", rel)
	}
	if restored.ZoneUpdates() != tr.ZoneUpdates() {
		t.Errorf("zone updates %d, want %d", restored.ZoneUpdates(), tr.ZoneUpdates())
	}

	// Continue both and compare samples (agreement to c2p tolerance).
	if _, err := tr.Advance(0.15); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Advance(0.15); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.2, 0.45, 0.55, 0.8} {
		a := tr.SampleAt(x, 0)
		b := restored.SampleAt(x, 0)
		if math.Abs(a.Rho-b.Rho) > 1e-8*(1+a.Rho) || math.Abs(a.P-b.P) > 1e-8*(1+a.P) {
			t.Errorf("restored run diverged at x=%v: %+v vs %+v", x, a, b)
		}
	}
}

// TestCheckpointAfterRegrid saves immediately after a step that regridded
// — the structure the restored tree must rebuild includes both refined
// and (potentially) coarsened regions created mid-run, which is exactly
// the serialization state block migration reuses. Stepping both trees
// onward must keep their conserved sums together.
func TestCheckpointAfterRegrid(t *testing.T) {
	cfg := DefaultConfig(core.DefaultConfig())
	cfg.MaxLevel = 2
	cfg.BlockN = 8
	cfg.RegridEvery = 3
	tr, err := NewTree(testprob.Blast2D, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Land exactly on a regrid step so the checkpoint captures a
	// just-reshaped hierarchy, and verify at least one regrid changed it.
	leaves0 := tr.NumLeaves()
	for i := 0; i < 2*cfg.RegridEvery; i++ {
		if err := tr.Step(tr.MaxDt()); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Steps()%cfg.RegridEvery != 0 {
		t.Fatalf("test out of phase: %d steps, regrid every %d", tr.Steps(), cfg.RegridEvery)
	}

	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumLeaves() != tr.NumLeaves() {
		t.Fatalf("restored %d leaves, want %d", restored.NumLeaves(), tr.NumLeaves())
	}
	if restored.Steps() != tr.Steps() {
		t.Errorf("restored %d steps, want %d", restored.Steps(), tr.Steps())
	}

	// Step both trees in lockstep past another regrid and compare the
	// conserved sums — identical grids must produce identical dynamics
	// (tolerance covers the con2prim re-seed on load).
	for i := 0; i < 2*cfg.RegridEvery; i++ {
		dt := tr.MaxDt()
		if err := tr.Step(dt); err != nil {
			t.Fatal(err)
		}
		if err := restored.Step(dt); err != nil {
			t.Fatal(err)
		}
	}
	if restored.NumLeaves() != tr.NumLeaves() {
		t.Errorf("after stepping: %d leaves vs %d", restored.NumLeaves(), tr.NumLeaves())
	}
	if rel := math.Abs(restored.TotalMass()-tr.TotalMass()) / tr.TotalMass(); rel > 1e-12 {
		t.Errorf("conserved sums diverged by %v", rel)
	}
	if tr.NumLeaves() == leaves0 && tr.MaxLevelInUse() == 0 {
		t.Error("hierarchy never refined — the test exercised nothing")
	}
}

func TestCheckpointGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("junk"), core.DefaultConfig()); err == nil {
		t.Error("garbage accepted")
	}
}

func TestCheckpoint2D(t *testing.T) {
	cfg := DefaultConfig(core.DefaultConfig())
	cfg.MaxLevel = 1
	cfg.BlockN = 8
	tr, err := NewTree(testprob.Blast2D, 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := tr.Step(tr.MaxDt()); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumLeaves() != tr.NumLeaves() {
		t.Errorf("2D leaves %d, want %d", restored.NumLeaves(), tr.NumLeaves())
	}
	if rel := math.Abs(restored.TotalMass()-tr.TotalMass()) / tr.TotalMass(); rel > 1e-14 {
		t.Errorf("2D mass differs by %v", rel)
	}
}

// TestTreeFromLeafBlobsBitExact pins the rank-failure recovery property:
// a tree rebuilt from leaf record sets (which carry U and W, including
// ghosts) continues bit-identically to the original — unlike Load, which
// re-recovers primitives and only matches to c2p tolerance.
func TestTreeFromLeafBlobsBitExact(t *testing.T) {
	cfg := DefaultConfig(core.DefaultConfig())
	cfg.BlockN = 8
	cfg.MaxLevel = 2
	cfg.RegridEvery = 2
	tr, err := NewTree(testprob.Blast2D, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := tr.Step(tr.MaxDt()); err != nil {
			t.Fatal(err)
		}
	}

	// Encode the leaves split across two "ranks" to mimic buddy checkpoints.
	n := tr.NumLeaves()
	half := make([]int, 0, n)
	rest := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if i < n/2 {
			half = append(half, i)
		} else {
			rest = append(rest, i)
		}
	}
	setA := tr.AppendLeafRecords(nil, half)
	setB := tr.AppendLeafRecords(nil, rest)

	re, err := TreeFromLeafBlobs(testprob.Blast2D, 4, cfg,
		[][]float64{setA, setB}, tr.Time(), tr.Steps(), tr.ZoneUpdates())
	if err != nil {
		t.Fatal(err)
	}
	if re.NumLeaves() != n || re.Steps() != tr.Steps() || re.Time() != tr.Time() {
		t.Fatalf("rebuild mismatch: %d leaves t=%v steps=%d", re.NumLeaves(), re.Time(), re.Steps())
	}

	// March both six more steps (crossing a regrid) and demand bitwise
	// agreement of every leaf's raw conserved and primitive data.
	for i := 0; i < 6; i++ {
		dtA, dtB := tr.MaxDt(), re.MaxDt()
		if dtA != dtB {
			t.Fatalf("step %d: dt %v vs %v", i, dtA, dtB)
		}
		if err := tr.Step(dtA); err != nil {
			t.Fatal(err)
		}
		if err := re.Step(dtB); err != nil {
			t.Fatal(err)
		}
	}
	if re.NumLeaves() != tr.NumLeaves() {
		t.Fatalf("leaf count diverged: %d vs %d", re.NumLeaves(), tr.NumLeaves())
	}
	refA, refB := tr.LeafRefs(), re.LeafRefs()
	for i := range refA {
		if refA[i] != refB[i] {
			t.Fatalf("leaf %d ref %v vs %v", i, refA[i], refB[i])
		}
	}
	for i := range refA {
		rawA, rawB := tr.LeafRawU(i), re.LeafRawU(i)
		for j := range rawA {
			if rawA[j] != rawB[j] {
				t.Fatalf("leaf %d word %d: %v vs %v", i, j, rawA[j], rawB[j])
			}
		}
	}
}

// frameCheckpoint writes a tree checkpoint with the given header, problem
// name and record set the way save does, so tests can build payloads that
// decode but do not fit.
func frameCheckpoint(t *testing.T, h treeHeader, name string, set []float64) (framed, raw []byte) {
	t.Helper()
	var payload, buf bytes.Buffer
	h.NameLen = int64(len(name))
	if err := binary.Write(&payload, binary.LittleEndian, &h); err != nil {
		t.Fatal(err)
	}
	payload.WriteString(name)
	binary.Write(&payload, binary.LittleEndian, set)
	fw := durable.NewWriter(&buf)
	if _, err := fw.Write(payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := fw.Seal(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), payload.Bytes()
}

// recordSet encodes records into a set, CRC word included.
func recordSet(recs ...leafRecord) []float64 {
	set := []float64{recordFormat, float64(len(recs))}
	for _, r := range recs {
		hasW := 0.0
		if r.W != nil {
			hasW = 1
		}
		set = append(set, float64(r.Level), float64(r.Bi), float64(r.Bj), hasW, float64(len(r.U)))
		set = append(append(set, r.U...), r.W...)
	}
	return append(set, float64(durable.CRCWords(set)))
}

func TestLoadErrorTaxonomy(t *testing.T) {
	coreCfg := core.DefaultConfig()
	// Undecodable payload: corrupt.
	_, err := Load(strings.NewReader("junk"), coreCfg)
	if !errors.Is(err, output.ErrCheckpointCorrupt) {
		t.Errorf("garbage classified %v, want ErrCheckpointCorrupt", err)
	}
	// Decodable payloads that cannot fit this build: mismatch.
	sod := treeHeader{BlockN: 16, MaxLevel: 2, RegridEvery: 4, Nbx: 4, Nby: 1}
	type payload struct {
		h    treeHeader
		name string
		set  []float64
	}
	noLeaves := recordSet()
	oneWord := recordSet(leafRecord{U: []float64{1}})
	bad := []payload{
		{sod, "no-such-problem", noLeaves},
		{treeHeader{BlockN: 2, MaxLevel: 2, RegridEvery: 4, Nbx: 4, Nby: 1}, "sod", noLeaves}, // < 2×ghost
		{treeHeader{BlockN: 16, MaxLevel: 2, RegridEvery: 4, Nbx: 0, Nby: 1}, "sod", noLeaves},
		{treeHeader{BlockN: 2, MaxLevel: 2, RegridEvery: 4, Nbx: 1, Nby: 1}, "sod", oneWord},
		{treeHeader{BlockN: 4, MaxLevel: 2, RegridEvery: 4, Nbx: 1, Nby: 1}, "sod", oneWord},
	}
	for i, b := range bad {
		framed, raw := frameCheckpoint(t, b.h, b.name, b.set)
		// The same payload without its frame is what no writer has
		// produced since PR 8: corrupt, never loaded.
		if _, err := Load(bytes.NewReader(raw), coreCfg); !errors.Is(err, output.ErrCheckpointCorrupt) {
			t.Errorf("unframed payload %d classified %v, want ErrCheckpointCorrupt", i, err)
		}
		_, err := Load(bytes.NewReader(framed), coreCfg)
		if !errors.Is(err, output.ErrCheckpointMismatch) {
			t.Errorf("bad payload %d classified %v, want ErrCheckpointMismatch", i, err)
		}
		if errors.Is(err, output.ErrCheckpointCorrupt) {
			t.Errorf("bad payload %d also classified as corrupt", i)
		}
	}
	// A truncated valid stream is corrupt again.
	cfg := DefaultConfig(coreCfg)
	tr, err := NewTree(testprob.Sod, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/3]
	if _, err := Load(bytes.NewReader(trunc), coreCfg); !errors.Is(err, output.ErrCheckpointCorrupt) {
		t.Errorf("truncated checkpoint classified %v, want ErrCheckpointCorrupt", err)
	}
}

// gobLeafRecord and gobTreeCheckpoint are the gob checkpoint payload this
// package wrote before the fixed-layout record set.
type gobLeafRecord struct {
	Level, Bi, Bj int
	U             []float64
	W             []float64
}

type gobTreeCheckpoint struct {
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
	Leaves      []gobLeafRecord
}

// TestLegacyGobCheckpointRejected pins the one-format rule: a framed gob tree
// checkpoint, written the way the previous format was, is corrupt — there
// is no second loader.
func TestLegacyGobCheckpointRejected(t *testing.T) {
	cfg := DefaultConfig(core.DefaultConfig())
	tr, err := NewTree(testprob.Sod, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp := gobTreeCheckpoint{
		Problem: tr.prob.Name, BlockN: cfg.BlockN, MaxLevel: cfg.MaxLevel,
		RefineTol: cfg.RefineTol, CoarsenTol: cfg.CoarsenTol, RegridEvery: cfg.RegridEvery,
		Nbx: tr.nbx, Nby: tr.nby, Time: tr.Time(), Steps: tr.Steps(), ZoneUpdates: tr.ZoneUpdates(),
	}
	for _, n := range tr.leaves {
		cp.Leaves = append(cp.Leaves, gobLeafRecord{Level: n.level, Bi: n.bi, Bj: n.bj,
			U: n.sol.G.U.Raw(), W: n.sol.G.W.Raw()})
	}
	var buf bytes.Buffer
	fw := durable.NewWriter(&buf)
	if err := gob.NewEncoder(fw).Encode(&cp); err != nil {
		t.Fatal(err)
	}
	if err := fw.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, cfg.Core); !errors.Is(err, output.ErrCheckpointCorrupt) {
		t.Fatalf("framed gob checkpoint classified %v, want ErrCheckpointCorrupt", err)
	}
}

// TestRecordSetEveryBitFlipAndTruncationCorrupt flips every bit of an
// encoded record set, and cuts it at every length: each damaged input is
// ErrCheckpointCorrupt and installs nothing into the target tree.
func TestRecordSetEveryBitFlipAndTruncationCorrupt(t *testing.T) {
	cfg := DefaultConfig(core.DefaultConfig())
	cfg.BlockN, cfg.MaxLevel = 8, 1
	src, err := NewTree(testprob.Sod, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewTree(testprob.Sod, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Step(src.MaxDt()); err != nil {
		t.Fatal(err)
	}
	data, err := src.EncodeLeaves([]int{0, src.NumLeaves() - 1})
	if err != nil {
		t.Fatal(err)
	}
	fp := dst.Fingerprint()
	reject := func(what string, b []byte) {
		t.Helper()
		if _, err := dst.DecodeLeaves(b); !errors.Is(err, output.ErrCheckpointCorrupt) {
			t.Fatalf("%s: %v, want ErrCheckpointCorrupt", what, err)
		}
		if dst.Fingerprint() != fp {
			t.Fatalf("%s: a rejected set changed the tree", what)
		}
	}
	for off := range data {
		for bit := 0; bit < 8; bit++ {
			data[off] ^= 1 << bit
			reject(fmt.Sprintf("flip at byte %d bit %d", off, bit), data)
			data[off] ^= 1 << bit
		}
	}
	for cut := 0; cut < len(data); cut++ {
		reject(fmt.Sprintf("truncation to %d bytes", cut), data[:cut])
	}
	if n, err := dst.DecodeLeaves(data); err != nil || n != 2 {
		t.Fatalf("restored set: %d leaves, %v", n, err)
	}
}

// TestSaveExactBitIdentical pins the exact-checkpoint contract the job
// server's preemption relies on: SaveExact → Load → continue matches an
// uninterrupted run bit for bit, including across regrid boundaries
// (the persisted step counter keeps the regrid cadence aligned).
func TestSaveExactBitIdentical(t *testing.T) {
	mk := func() *Tree {
		cfg := DefaultConfig(core.DefaultConfig())
		cfg.MaxLevel = 2
		cfg.RegridEvery = 4
		tr, err := NewTree(testprob.Sod, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	stepN := func(tr *Tree, n int) {
		for i := 0; i < n; i++ {
			dt := tr.MaxDt()
			if err := tr.Step(dt); err != nil {
				t.Fatal(err)
			}
		}
	}

	quiet := mk()
	stepN(quiet, 20)

	tr := mk()
	stepN(tr, 10) // parks between regrids (10 is not a multiple of 4)
	var buf bytes.Buffer
	if err := tr.SaveExact(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Fingerprint() != tr.Fingerprint() {
		t.Fatal("state changed across SaveExact round trip")
	}
	if restored.Steps() != 10 {
		t.Fatalf("restored step counter %d, want 10", restored.Steps())
	}
	stepN(restored, 10)
	if restored.Fingerprint() != quiet.Fingerprint() {
		t.Fatalf("restored run diverged from uninterrupted: %016x != %016x",
			restored.Fingerprint(), quiet.Fingerprint())
	}

	// The plain checkpoint, by contrast, re-recovers primitives: still a
	// valid restart, but not bit-identical — which is exactly why the
	// serving layer uses SaveExact.
	var plain bytes.Buffer
	if err := quiet.Save(&plain); err != nil {
		t.Fatal(err)
	}
	replain, err := Load(&plain, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if replain.NumLeaves() != quiet.NumLeaves() {
		t.Fatalf("plain restore leaves %d, want %d", replain.NumLeaves(), quiet.NumLeaves())
	}
}
