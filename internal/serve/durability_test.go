package serve

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rhsc/internal/durable"
)

// drainTwo stands up a server with one running (parked-with-snapshot)
// and one queued job, then drains it into dir through fsys.
func drainTwo(t *testing.T, fsys durable.FS, dir string) error {
	t.Helper()
	s := New(Config{Workers: 1, SpoolFS: fsys})
	running, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to make progress", func() bool {
		st, _ := s.Get(running.ID)
		return st.State == Running && st.Step >= 4
	})
	if _, err := s.Submit(quickSpec()); err != nil {
		t.Fatal(err)
	}
	return s.Drain(dir)
}

// TestLoadSpoolSkipsAndQuarantinesCorruptRecord is the satellite
// boot-robustness property: one rotten spool record must not wedge the
// boot — the good jobs load, the bad record moves to corrupt/ with a
// reason note, and the counters say so.
func TestLoadSpoolSkipsAndQuarantinesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	if err := drainTwo(t, durable.OS, dir); err != nil {
		t.Fatalf("drain: %v", err)
	}
	recs, _ := filepath.Glob(filepath.Join(dir, "*.dur"))
	if len(recs) != 2 {
		t.Fatalf("spooled %d records, want 2", len(recs))
	}

	// Rot a bit in the middle of the first record.
	raw, err := os.ReadFile(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(recs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Workers: 1})
	defer s2.Close()
	n, err := s2.LoadSpool(dir)
	if n != 1 {
		t.Fatalf("loaded %d jobs, want 1 (the intact one)", n)
	}
	if !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("load error %v, want to wrap ErrCorrupt", err)
	}
	q, _ := filepath.Glob(filepath.Join(dir, durable.QuarantineDir, "*.dur"))
	if len(q) != 1 {
		t.Fatalf("quarantined %d records, want 1", len(q))
	}
	if _, err := os.Stat(q[0] + ".reason"); err != nil {
		t.Fatalf("quarantined record has no reason note: %v", err)
	}
	snap := s2.DurableMetrics()
	if snap.DetectedCorruptions < 1 || snap.Quarantined < 1 {
		t.Fatalf("counters %+v", snap)
	}
	// The surviving job runs to completion.
	for _, st := range s2.List() {
		if final, _ := s2.Wait(st.ID); final.State != Done {
			t.Fatalf("surviving job ended %q (%s)", final.State, final.Reason)
		}
	}
}

// TestLoadSpoolLegacyPairsIgnored pins the end of the migration
// window: a pre-durable two-file spool entry (<id>.json + <id>.ckpt) is
// not a store record, so LoadSpool admits nothing from it — zero silent
// loads — and leaves the files exactly where the operator put them.
func TestLoadSpoolLegacyPairsIgnored(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"jlegacy.json": `{"id":"jlegacy","spec":{"problem":"sod","n":64,"max_steps":8},"has_snapshot":true}`,
		"jlegacy.ckpt": "raw gob snapshot bytes",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := New(Config{Workers: 1})
	defer s.Close()
	n, err := s.LoadSpool(dir)
	if n != 0 || err != nil {
		t.Fatalf("LoadSpool = %d, %v; want 0 jobs and no error", n, err)
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Fatalf("legacy pair admitted jobs: %+v", jobs)
	}
	for name, body := range files {
		got, rerr := os.ReadFile(filepath.Join(dir, name))
		if rerr != nil || string(got) != body {
			t.Fatalf("%s touched: %q, %v", name, got, rerr)
		}
	}
	if _, serr := os.Stat(filepath.Join(dir, durable.QuarantineDir)); !os.IsNotExist(serr) {
		t.Fatalf("legacy pair quarantined: %v", serr)
	}
}

// TestDrainCrashMatrix crashes the spool filesystem at every mutating
// write point of a two-job drain, then boots a clean server on the
// directory: whatever survived must be fully valid — every loaded job
// re-admits and the loader never reports a torn record as loadable.
func TestDrainCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is a long test")
	}
	probe := durable.NewFaultFS(durable.OS, durable.Plan{})
	if err := drainTwo(t, probe, t.TempDir()); err != nil {
		t.Fatalf("clean drain: %v", err)
	}
	total := probe.Ops()
	if total < 6 {
		t.Fatalf("drain issued only %d mutating ops", total)
	}

	for op := 1; op <= total; op++ {
		dir := t.TempDir()
		ffs := durable.NewFaultFS(durable.OS, durable.Plan{CrashAtOp: op, TornBytes: 3})
		drainErr := drainTwo(t, ffs, dir)
		if ffs.Ops() < op {
			t.Fatalf("op %d: crash never fired (drain err %v)", op, drainErr)
		}
		if drainErr == nil {
			t.Fatalf("op %d: crashed drain reported success", op)
		}

		s2 := New(Config{Workers: 1})
		n, _ := s2.LoadSpool(dir)
		// Zero, one or two jobs may have committed before the crash;
		// every one that did must be genuinely runnable.
		if n < 0 || n > 2 {
			t.Fatalf("op %d: loaded %d jobs", op, n)
		}
		for _, st := range s2.List() {
			if final, _ := s2.Wait(st.ID); final.State != Done {
				t.Fatalf("op %d: recovered job %s ended %q (%s)",
					op, st.ID, final.State, final.Reason)
			}
		}
		s2.Close()
	}
}
