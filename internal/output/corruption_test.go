package output

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"rhsc/internal/grid"
)

// sealExact produces a framed exact checkpoint of a small grid.
func sealExact(t *testing.T) []byte {
	t.Helper()
	g := mkGrid1D()
	g.SetAllBCs(grid.Periodic)
	var buf bytes.Buffer
	if err := SaveCheckpointExact(&buf, g, 0.5); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointCorruptionMatrix is the satellite corruption matrix
// for the output layer: truncation and bit flips across the frame's
// structural offset classes must all classify as ErrCheckpointCorrupt
// — zero silent loads.
func TestCheckpointCorruptionMatrix(t *testing.T) {
	pristine := sealExact(t)
	n := len(pristine)
	if _, _, _, err := LoadCheckpointFull(bytes.NewReader(pristine)); err != nil {
		t.Fatalf("pristine checkpoint does not load: %v", err)
	}

	// Offset classes: header, early payload, mid payload, tail payload,
	// footer region.
	offsets := []struct {
		name string
		off  int
	}{
		{"header-magic", 0},
		{"header-version", 9},
		{"chunk-length", 16},
		{"payload-early", 40},
		{"payload-mid", n / 2},
		{"payload-late", n - 64},
		{"footer-totals", n - 28},
		{"footer-crc", n - 12},
		{"footer-magic", n - 4},
	}

	t.Run("bitflip", func(t *testing.T) {
		for _, tc := range offsets {
			mut := append([]byte(nil), pristine...)
			mut[tc.off] ^= 0x04
			_, _, _, err := LoadCheckpointFull(bytes.NewReader(mut))
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Errorf("%s (byte %d): %v, want ErrCheckpointCorrupt", tc.name, tc.off, err)
			}
		}
	})

	t.Run("truncate", func(t *testing.T) {
		for _, tc := range offsets {
			_, _, _, err := LoadCheckpointFull(bytes.NewReader(pristine[:tc.off]))
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Errorf("truncate at %s (%d bytes): %v, want ErrCheckpointCorrupt", tc.name, tc.off, err)
			}
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		mut := append(append([]byte(nil), pristine...), 0xFF)
		_, _, _, err := LoadCheckpointFull(bytes.NewReader(mut))
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("trailing garbage: %v, want ErrCheckpointCorrupt", err)
		}
	})
}

// TestLegacyRawGobCheckpointRejected pins the end of the migration
// window: every writer frames its output, so a bare gob stream — the
// pre-framing on-disk format — is refused as corrupt, never loaded.
func TestLegacyRawGobCheckpointRejected(t *testing.T) {
	g := mkGrid1D()
	var buf bytes.Buffer
	if err := legacyEncode(&buf, g, 2.5); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCheckpointFull(&buf); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("unframed checkpoint: err = %v, want ErrCheckpointCorrupt", err)
	}
}

// legacyEncode writes the pre-framing checkpoint format: one raw gob
// value, exactly what SaveCheckpoint emitted before durable framing.
func legacyEncode(w *bytes.Buffer, g *grid.Grid, t float64) error {
	cp := checkpoint{Geom: g.Geometry, BCs: g.BCs, Time: t}
	cp.U = append([]float64(nil), g.U.Raw()...)
	return gob.NewEncoder(w).Encode(&cp)
}
