package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// crashScript is the scripted commit sequence the matrix sweeps: two
// generations of one object, like a run checkpointing twice. It stops
// at the first error (the process died).
func crashScript(fsys FS, dir string) error {
	s, err := Open(fsys, dir, nil)
	if err != nil {
		return err
	}
	if _, err := s.Commit("job", func(w io.Writer) error {
		_, err := w.Write([]byte("generation-one"))
		return err
	}); err != nil {
		return err
	}
	_, err = s.Commit("job", func(w io.Writer) error {
		_, err := w.Write([]byte("generation-two"))
		return err
	})
	return err
}

// TestCrashAtEveryWritePoint is the acceptance matrix: for every
// mutating-op index in the commit sequence, crash there, then recover
// with a clean filesystem and require that (a) the load lands on a
// fully-valid generation or reports a clean not-exist — never a torn
// or hybrid payload, and (b) durability is monotone in the crash
// point: once some crash index yields generation two, every later
// crash index does too.
func TestCrashAtEveryWritePoint(t *testing.T) {
	probe := NewFaultFS(OS, Plan{})
	if err := crashScript(probe, t.TempDir()); err != nil {
		t.Fatalf("clean script run: %v", err)
	}
	total := probe.Ops()
	if total < 10 {
		t.Fatalf("script issued only %d mutating ops", total)
	}

	for _, torn := range []int{0, 3} {
		level := 0 // 0 = nothing, 1 = gen one, 2 = gen two
		for op := 1; op <= total; op++ {
			dir := t.TempDir()
			ffs := NewFaultFS(OS, Plan{CrashAtOp: op, TornBytes: torn})
			err := crashScript(ffs, dir)
			if op <= total && ffs.Ops() < op {
				// Later ops may legitimately not be reached when the
				// crash consumed earlier ones; but op <= total means
				// the crash must have fired, and the op count reaches
				// CrashAtOp exactly when it does.
				t.Fatalf("op %d torn %d: crash never fired (err %v)", op, torn, err)
			}

			// Reboot: clean FS, fresh store.
			s, err := Open(OS, dir, nil)
			if err != nil {
				t.Fatalf("op %d torn %d: reopen: %v", op, torn, err)
			}
			var got []byte
			_, err = s.Load("job", func(r io.Reader) error {
				var err error
				got, err = io.ReadAll(r)
				return err
			})
			now := 0
			switch {
			case err == nil && string(got) == "generation-two":
				now = 2
			case err == nil && string(got) == "generation-one":
				now = 1
			case errors.Is(err, ErrNotExist) && op > 1:
				// Only possible while generation one is still unpublished.
				now = 0
			case errors.Is(err, ErrNotExist) && op == 1:
				now = 0 // crash on the store's own mkdir/cleanup
			default:
				t.Fatalf("op %d torn %d: recovered %q err %v — not a committed generation", op, torn, got, err)
			}
			if now < level {
				t.Fatalf("op %d torn %d: durability regressed from %d to %d", op, torn, level, now)
			}
			level = now

			// Crash debris must not survive the reopen.
			files, _ := os.ReadDir(dir)
			for _, f := range files {
				if strings.HasPrefix(f.Name(), tmpPrefix) {
					t.Fatalf("op %d torn %d: temp debris %s survived reopen", op, torn, f.Name())
				}
			}
		}
		if level != 2 {
			t.Fatalf("torn %d: crash after the last op still lost generation two", torn)
		}
	}
}

// TestCommitSurvivesTransientFailures injects a single non-crash
// failure (ENOSPC-style) at every op of a second commit: the commit
// must report the error (or succeed, when the op is past the publish
// point) and the store must still load a fully-valid generation.
func TestCommitSurvivesTransientFailures(t *testing.T) {
	probe := NewFaultFS(OS, Plan{})
	if err := crashScript(probe, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()

	for op := 1; op <= total; op++ {
		dir := t.TempDir()
		ffs := NewFaultFS(OS, Plan{FailAtOp: op, FailErr: ErrNoSpace})
		scriptErr := crashScript(ffs, dir)

		s, err := Open(OS, dir, nil)
		if err != nil {
			t.Fatalf("op %d: reopen: %v", op, err)
		}
		var got []byte
		_, err = s.Load("job", func(r io.Reader) error {
			var e error
			got, e = io.ReadAll(r)
			return e
		})
		switch {
		case err == nil && (string(got) == "generation-one" || string(got) == "generation-two"):
		case errors.Is(err, ErrNotExist) && scriptErr != nil:
			// The failure landed before the first publish.
		default:
			t.Fatalf("op %d: recovered %q err %v (script err %v)", op, got, err, scriptErr)
		}
		if scriptErr != nil && !errors.Is(scriptErr, ErrNoSpace) {
			t.Fatalf("op %d: script error %v does not surface the injected cause", op, scriptErr)
		}
	}
}

// TestCrashRecoveryPrefersNewestValid pins the core recovery rule
// with a handmade layout: valid g1, torn g2 (a frame missing its
// tail), valid g3 from a different object. Load must serve g1 and
// quarantine g2.
func TestCrashRecoveryPrefersNewestValid(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(OS, dir, nil)
	commitBytes(t, s, "job", []byte("v1"))
	commitBytes(t, s, "job", []byte("v2"))

	// Tear generation 2: chop the footer (simulates rename of a file
	// whose tail never hit the disk).
	f := filepath.Join(dir, genFile("job", 2))
	raw, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f, raw[:len(raw)-footerLen], 0o644); err != nil {
		t.Fatal(err)
	}

	got, gen, err := loadBytes(s, "job")
	if err != nil || gen != 1 || string(got) != "v1" {
		t.Fatalf("load after torn g2: %q g%d %v", got, gen, err)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, genFile("job", 2))); err != nil {
		t.Fatalf("torn generation not quarantined: %v", err)
	}
}
