// Package output writes simulation data: CSV profiles and slabs for
// plotting (gnuplot/matplotlib-ready), and binary checkpoints that capture
// the full conserved state for exact restart.
package output

import (
	"encoding/csv"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"strconv"

	"rhsc/internal/durable"
	"rhsc/internal/grid"
)

// Checkpoint failure classes. Callers that resume jobs (the serving
// layer, spool recovery) match these with errors.Is to decide whether a
// failed restore is worth retrying:
//
//   - ErrCheckpointCorrupt: the payload cannot be decoded at all —
//     truncated file, torn write, or garbage. Retrying the same bytes
//     can never succeed; the job must be failed or restarted from
//     scratch.
//   - ErrCheckpointMismatch: the payload decoded cleanly but does not
//     fit the requesting configuration (wrong grid shape, unknown
//     problem, inconsistent structure). Also fatal for these bytes, but
//     diagnostic of a config drift rather than data loss.
//
// Anything else (e.g. an *os.PathError from the reader) is an I/O
// error and may be transient.
//
// ErrCheckpointCorrupt aliases durable.ErrCorrupt so integrity
// failures detected by the durable framing layer (CRC mismatch, torn
// tail, truncation) classify identically to decode failures here —
// one errors.Is covers both layers.
var (
	ErrCheckpointCorrupt  = durable.ErrCorrupt
	ErrCheckpointMismatch = errors.New("checkpoint mismatch")
)

// CheckpointError wraps a checkpoint load failure with its class and
// the failing operation, so the serving layer can report "job X:
// resume failed decoding leaf table: ..." and still classify with
// errors.Is(err, ErrCheckpointCorrupt).
type CheckpointError struct {
	Op   string // what was being loaded, e.g. "decode checkpoint"
	Kind error  // ErrCheckpointCorrupt or ErrCheckpointMismatch
	Err  error  // underlying cause; may be nil for shape violations
}

// Error implements the error interface.
func (e *CheckpointError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("%s: %v: %v", e.Op, e.Kind, e.Err)
	}
	return fmt.Sprintf("%s: %v", e.Op, e.Kind)
}

// Unwrap exposes both the class sentinel and the cause to errors.Is/As.
func (e *CheckpointError) Unwrap() []error {
	if e.Err == nil {
		return []error{e.Kind}
	}
	return []error{e.Kind, e.Err}
}

// CorruptError builds a *CheckpointError classified as corrupt.
func CorruptError(op string, err error) error {
	return &CheckpointError{Op: op, Kind: ErrCheckpointCorrupt, Err: err}
}

// MismatchError builds a *CheckpointError classified as a mismatch.
func MismatchError(op string, err error) error {
	return &CheckpointError{Op: op, Kind: ErrCheckpointMismatch, Err: err}
}

// WriteProfileCSV writes a 1-D profile of the primitives along x (at the
// first interior j, k row): columns x, rho, vx, vy, vz, p.
func WriteProfileCSV(w io.Writer, g *grid.Grid) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"x", "rho", "vx", "vy", "vz", "p"}); err != nil {
		return err
	}
	j, k := g.JBeg(), g.KBeg()
	for i := g.IBeg(); i < g.IEnd(); i++ {
		p := g.W.GetPrim(g.Idx(i, j, k))
		rec := []string{
			fmtF(g.X(i)), fmtF(p.Rho), fmtF(p.Vx), fmtF(p.Vy), fmtF(p.Vz), fmtF(p.P),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSlabCSV writes the 2-D slab at the first interior k: columns
// x, y, rho, vx, vy, p. Rows are emitted in y-major order with a blank
// record between y-rows being unnecessary for CSV consumers.
func WriteSlabCSV(w io.Writer, g *grid.Grid) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"x", "y", "rho", "vx", "vy", "p"}); err != nil {
		return err
	}
	k := g.KBeg()
	for j := g.JBeg(); j < g.JEnd(); j++ {
		for i := g.IBeg(); i < g.IEnd(); i++ {
			p := g.W.GetPrim(g.Idx(i, j, k))
			rec := []string{
				fmtF(g.X(i)), fmtF(g.Y(j)), fmtF(p.Rho), fmtF(p.Vx), fmtF(p.Vy), fmtF(p.P),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSeriesCSV writes aligned series data (e.g. a scaling curve):
// header names and one row per index across the columns. All columns must
// have equal length.
func WriteSeriesCSV(w io.Writer, headers []string, cols ...[]float64) error {
	if len(headers) != len(cols) {
		return fmt.Errorf("output: %d headers for %d columns", len(headers), len(cols))
	}
	n := 0
	for i, c := range cols {
		if i == 0 {
			n = len(c)
		} else if len(c) != n {
			return fmt.Errorf("output: column %d has %d rows, want %d", i, len(c), n)
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(headers); err != nil {
		return err
	}
	rec := make([]string, len(cols))
	for r := 0; r < n; r++ {
		for c := range cols {
			rec[c] = fmtF(cols[c][r])
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 12, 64) }

// checkpoint is the gob payload. The conserved state is always stored;
// W is only populated by the exact path (SaveCheckpointExact): primitive
// recovery seeds its Newton iteration with the previous pressure, so a
// restart that re-derives primitives is accurate but not bit-identical
// to the uninterrupted run. Carrying W (interior and ghosts) lets the
// restore skip re-recovery entirely and continue round-off-exactly —
// the property checkpoint-based preemption relies on. gob tolerates the
// absent field in either direction, so old and new checkpoints interopt.
type checkpoint struct {
	Geom grid.Geometry
	BCs  [3][2]grid.BC
	Time float64
	U    []float64
	W    []float64
}

// SaveCheckpoint serialises grid geometry, boundary conditions, solution
// time and the conserved state. Restores from it re-derive primitives,
// so a restarted run is accurate but not bitwise identical; use
// SaveCheckpointExact when exact continuation matters.
//
// The payload is wrapped in a durable frame (per-chunk CRC32C plus a
// sealed footer), so truncation, torn writes and bit rot are detected
// at load time instead of surfacing as gob decode noise or — worse —
// silently plausible state.
func SaveCheckpoint(w io.Writer, g *grid.Grid, t float64) error {
	cp := checkpoint{Geom: g.Geometry, BCs: g.BCs, Time: t}
	cp.U = make([]float64, len(g.U.Raw()))
	copy(cp.U, g.U.Raw())
	return sealCheckpoint(w, &cp)
}

// SaveCheckpointExact serialises conserved and primitive fields
// (including ghost zones) so a restore continues bit-identically to the
// uninterrupted run. Framed like SaveCheckpoint.
func SaveCheckpointExact(w io.Writer, g *grid.Grid, t float64) error {
	cp := checkpoint{Geom: g.Geometry, BCs: g.BCs, Time: t}
	cp.U = make([]float64, len(g.U.Raw()))
	copy(cp.U, g.U.Raw())
	cp.W = make([]float64, len(g.W.Raw()))
	copy(cp.W, g.W.Raw())
	return sealCheckpoint(w, &cp)
}

// sealCheckpoint gob-encodes cp through a durable frame and seals it.
func sealCheckpoint(w io.Writer, cp *checkpoint) error {
	fw := durable.NewWriter(w)
	if err := gob.NewEncoder(fw).Encode(cp); err != nil {
		return err
	}
	return fw.Seal()
}

// LoadCheckpointFull reconstructs the grid and returns it with the
// stored solution time, reporting whether the checkpoint carried
// primitives (SaveCheckpointExact): when prims is true the grid's W field is filled bit-exactly and the caller must
// NOT re-run primitive recovery if it wants exact continuation; when
// false the caller must run its solver's RecoverPrimitives.
//
// Failures are classified: undecodable payloads wrap
// ErrCheckpointCorrupt, structurally valid payloads that do not fit
// the grid wrap ErrCheckpointMismatch (see CheckpointError).
func LoadCheckpointFull(r io.Reader) (*grid.Grid, float64, bool, error) {
	// Every checkpoint is framed; a stream without the frame header is
	// rejected as corrupt here.
	framed, err := durable.NewReader(r)
	if err != nil {
		return nil, 0, false, err
	}
	var cp checkpoint
	if err := gob.NewDecoder(framed).Decode(&cp); err != nil {
		return nil, 0, false, CorruptError("output: decode checkpoint", err)
	}
	// gob reads exactly one value and may leave the frame tail
	// unconsumed; Verify proves the footer (stream CRC, totals) is
	// intact so a torn tail cannot pass as a clean load.
	if err := framed.Verify(); err != nil {
		return nil, 0, false, CorruptError("output: verify checkpoint frame", err)
	}
	// grid.New panics on non-positive extents; surface a decodable-but-
	// absurd geometry as a mismatch instead.
	if cp.Geom.Nx < 1 || cp.Geom.Ny < 1 || cp.Geom.Nz < 1 || cp.Geom.Ng < 0 {
		return nil, 0, false, MismatchError("output: checkpoint geometry",
			fmt.Errorf("unusable cell counts %dx%dx%d (ghost %d)",
				cp.Geom.Nx, cp.Geom.Ny, cp.Geom.Nz, cp.Geom.Ng))
	}
	g := grid.New(cp.Geom)
	g.BCs = cp.BCs
	if len(cp.U) != len(g.U.Raw()) {
		return nil, 0, false, MismatchError("output: checkpoint conserved field",
			fmt.Errorf("holds %d values, grid needs %d", len(cp.U), len(g.U.Raw())))
	}
	copy(g.U.Raw(), cp.U)
	prims := cp.W != nil
	if prims {
		if len(cp.W) != len(g.W.Raw()) {
			return nil, 0, false, MismatchError("output: checkpoint primitive field",
				fmt.Errorf("holds %d values, grid needs %d", len(cp.W), len(g.W.Raw())))
		}
		copy(g.W.Raw(), cp.W)
	}
	return g, cp.Time, prims, nil
}
