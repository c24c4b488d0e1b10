package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rhsc/internal/metrics"
)

// commitBytes commits b as one generation of name.
func commitBytes(t *testing.T, s *Store, name string, b []byte) uint64 {
	t.Helper()
	gen, err := s.Commit(name, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
	if err != nil {
		t.Fatalf("commit %s: %v", name, err)
	}
	return gen
}

// loadBytes loads name's newest valid generation.
func loadBytes(s *Store, name string) ([]byte, uint64, error) {
	var got []byte
	gen, err := s.Load(name, func(r io.Reader) error {
		var err error
		got, err = io.ReadAll(r)
		return err
	})
	return got, gen, err
}

func TestStoreCommitLoadRoundTrip(t *testing.T) {
	s, err := Open(OS, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := commitBytes(t, s, "job", []byte("alpha")); g != 1 {
		t.Fatalf("first commit gen %d, want 1", g)
	}
	if g := commitBytes(t, s, "job", []byte("beta")); g != 2 {
		t.Fatalf("second commit gen %d, want 2", g)
	}
	got, gen, err := loadBytes(s, "job")
	if err != nil || gen != 2 || string(got) != "beta" {
		t.Fatalf("load: %q g%d %v", got, gen, err)
	}
	if c := s.c.Snapshot(); c.Commits != 2 || c.Recoveries != 0 {
		t.Fatalf("counters %+v", c)
	}
}

func TestStorePrunesOldGenerations(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(OS, dir, nil)
	for i := 0; i < 5; i++ {
		commitBytes(t, s, "job", []byte{byte(i)})
	}
	gens, err := s.generations("job")
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != KeepGenerations || gens[len(gens)-1] != 5 {
		t.Fatalf("after pruning: generations %v", gens)
	}
}

func TestStoreLoadSkipsCorruptNewestAndQuarantines(t *testing.T) {
	dir := t.TempDir()
	var c metrics.DurableCounters
	s, _ := Open(OS, dir, &c)
	commitBytes(t, s, "job", []byte("good-old"))
	commitBytes(t, s, "job", []byte("good-new"))

	// Rot a bit in the newest generation on disk.
	newest := filepath.Join(dir, genFile("job", 2))
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, gen, err := loadBytes(s, "job")
	if err != nil || gen != 1 || string(got) != "good-old" {
		t.Fatalf("recovery load: %q g%d %v", got, gen, err)
	}
	snap := c.Snapshot()
	if snap.Recoveries != 1 || snap.SkippedGenerations != 1 ||
		snap.DetectedCorruptions != 1 || snap.Quarantined != 1 {
		t.Fatalf("counters %+v", snap)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, genFile("job", 2))); err != nil {
		t.Fatalf("corrupt generation not quarantined: %v", err)
	}
	if _, err := os.Stat(newest); !os.IsNotExist(err) {
		t.Fatalf("corrupt generation still shadowing the store: %v", err)
	}
}

func TestStoreLoadAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(OS, dir, nil)
	commitBytes(t, s, "job", []byte("data"))
	f := filepath.Join(dir, genFile("job", 1))
	if err := os.WriteFile(f, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadBytes(s, "job"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("all-corrupt load: %v, want ErrCorrupt", err)
	}
	if _, _, err := loadBytes(s, "missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing load: %v, want ErrNotExist", err)
	}
}

func TestStoreLoadAbortsOnSemanticError(t *testing.T) {
	// A read-callback failure that is NOT corruption must abort rather
	// than silently resurrecting an older generation.
	s, _ := Open(OS, t.TempDir(), nil)
	commitBytes(t, s, "job", []byte("old"))
	commitBytes(t, s, "job", []byte("new"))
	sentinel := errors.New("config mismatch")
	_, err := s.Load("job", func(r io.Reader) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("semantic error not surfaced: %v", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("semantic error misclassified as corruption: %v", err)
	}
}

func TestStoreNamesRemoveAndManifest(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(OS, dir, nil)
	commitBytes(t, s, "a", []byte("1"))
	commitBytes(t, s, "b", []byte("2"))
	names, err := s.Names()
	if err != nil || len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names %v %v", names, err)
	}
	heads := s.readManifest()
	if heads["a"] != 1 || heads["b"] != 1 {
		t.Fatalf("manifest heads %v", heads)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if names, _ = s.Names(); len(names) != 1 || names[0] != "b" {
		t.Fatalf("names after remove %v", names)
	}
	if heads := s.readManifest(); len(heads) != 1 {
		t.Fatalf("manifest after remove %v", heads)
	}
}

func TestStoreOpenSweepsTempDebris(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(OS, dir, nil)
	commitBytes(t, s, "job", []byte("data"))
	debris := filepath.Join(dir, tmpPrefix+"job.g00000002.dur")
	if err := os.WriteFile(debris, []byte("half a commit"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(OS, dir, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatalf("temp debris survived reopen: %v", err)
	}
}

func TestStoreScrub(t *testing.T) {
	dir := t.TempDir()
	var c metrics.DurableCounters
	s, _ := Open(OS, dir, &c)
	commitBytes(t, s, "good", bytes.Repeat([]byte("x"), 4096))
	commitBytes(t, s, "bad", []byte("will be truncated"))

	// Truncate "bad" g1 behind the store's back.
	f := filepath.Join(dir, genFile("bad", 1))
	raw, _ := os.ReadFile(f)
	os.WriteFile(f, raw[:len(raw)-5], 0o644)

	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 2 || rep.Bad != 1 {
		t.Fatalf("scrub checked %d bad %d", rep.Checked, rep.Bad)
	}
	for _, r := range rep.Results {
		wantOK := r.File == genFile("good", 1)
		if r.OK != wantOK {
			t.Fatalf("scrub %s ok=%v", r.File, r.OK)
		}
		if wantOK && r.Bytes != 4096 {
			t.Fatalf("scrub verified %d bytes, want 4096", r.Bytes)
		}
	}
	// The manifest still points at bad g1, now invalid: drift.
	if len(rep.ManifestDrift) != 1 || rep.ManifestDrift[0] != "bad" {
		t.Fatalf("manifest drift %v", rep.ManifestDrift)
	}
	if c.Snapshot().ScrubFailures != 1 {
		t.Fatalf("scrub failures %d", c.Snapshot().ScrubFailures)
	}
	// Scrub is read-only: the bad file must still be in place.
	if _, err := os.Stat(f); err != nil {
		t.Fatalf("scrub moved the bad file: %v", err)
	}
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"j000001": true, "sod-amr-123": true, "blast2d": true,
		"": false, "a/b": false, "MANIFEST": false, ".hidden": false,
		"x.g1": false,
	} {
		if ValidName(name) != want {
			t.Errorf("ValidName(%q) = %v, want %v", name, !want, want)
		}
	}
}

func TestStoreBitRotViaFaultFS(t *testing.T) {
	// Read-time bit rot through the fault FS: the stored bytes are
	// pristine, the read path flips one bit, recovery must reject it.
	dir := t.TempDir()
	s, _ := Open(OS, dir, nil)
	commitBytes(t, s, "job", bytes.Repeat([]byte("payload"), 100))

	rot := NewFaultFS(OS, Plan{FlipBitPath: "job.g", FlipBitOffset: 300 * 8})
	var c metrics.DurableCounters
	s2, err := Open(rot, dir, &c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadBytes(s2, "job"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rotted load: %v, want ErrCorrupt", err)
	}
	if c.Snapshot().DetectedCorruptions != 1 {
		t.Fatalf("counters %+v", c.Snapshot())
	}
}
