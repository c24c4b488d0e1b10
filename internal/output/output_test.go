package output

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"rhsc/internal/grid"
	"rhsc/internal/state"
)

func mkGrid1D() *grid.Grid {
	g := grid.New(grid.Geometry{Nx: 8, Ny: 1, Nz: 1, Ng: 2, X0: 0, X1: 1})
	g.ForEachInterior(func(idx, i, _, _ int) {
		g.W.SetPrim(idx, state.Prim{Rho: float64(i), Vx: 0.1, P: 2})
		g.U.SetCons(idx, state.Cons{D: float64(i), Tau: 1})
	})
	return g
}

func TestWriteProfileCSV(t *testing.T) {
	g := mkGrid1D()
	var buf bytes.Buffer
	if err := WriteProfileCSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 9 { // header + 8 cells
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0][0] != "x" || recs[0][1] != "rho" {
		t.Errorf("header = %v", recs[0])
	}
	x0, _ := strconv.ParseFloat(recs[1][0], 64)
	if math.Abs(x0-0.0625) > 1e-12 {
		t.Errorf("first x = %v, want 0.0625", x0)
	}
	rho0, _ := strconv.ParseFloat(recs[1][1], 64)
	if rho0 != 2 { // first interior i = 2
		t.Errorf("first rho = %v", rho0)
	}
}

func TestWriteSlabCSV(t *testing.T) {
	g := grid.New(grid.Geometry{Nx: 4, Ny: 3, Nz: 1, Ng: 2, X0: 0, X1: 1, Y0: 0, Y1: 1})
	g.ForEachInterior(func(idx, i, j, _ int) {
		g.W.SetPrim(idx, state.Prim{Rho: float64(10*j + i), P: 1})
	})
	var buf bytes.Buffer
	if err := WriteSlabCSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+4*3 {
		t.Fatalf("got %d records", len(recs))
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSeriesCSV(&buf, []string{"n", "err"},
		[]float64{100, 200}, []float64{0.1, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n,err") {
		t.Errorf("missing header: %s", buf.String())
	}
	// Mismatched columns must fail.
	if err := WriteSeriesCSV(&buf, []string{"a"}, []float64{1}, []float64{2}); err == nil {
		t.Error("header/column mismatch accepted")
	}
	if err := WriteSeriesCSV(&buf, []string{"a", "b"}, []float64{1}, []float64{2, 3}); err == nil {
		t.Error("ragged columns accepted")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	g := mkGrid1D()
	g.SetAllBCs(grid.Periodic)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, g, 1.25); err != nil {
		t.Fatal(err)
	}
	g2, tt, prims, err := LoadCheckpointFull(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if prims {
		t.Error("a checkpoint without primitives reported them")
	}
	if tt != 1.25 {
		t.Errorf("time = %v", tt)
	}
	if g2.Nx != g.Nx || g2.BCs != g.BCs {
		t.Errorf("geometry/BCs not restored")
	}
	a, b := g.U.Raw(), g2.U.Raw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("U[%d] = %v, want %v", i, b[i], a[i])
		}
	}
}

func TestLoadCheckpointGarbage(t *testing.T) {
	if _, _, _, err := LoadCheckpointFull(strings.NewReader("not a checkpoint")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestCheckpointErrorTaxonomy(t *testing.T) {
	// Undecodable payloads are corrupt, not mismatched.
	_, _, _, err := LoadCheckpointFull(strings.NewReader("not a checkpoint"))
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("garbage classified %v, want ErrCheckpointCorrupt", err)
	}
	if errors.Is(err, ErrCheckpointMismatch) {
		t.Error("garbage also classified as mismatch")
	}

	// A truncated but well-started stream is corrupt too.
	g := mkGrid1D()
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, g, 1.0); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, _, _, err := LoadCheckpointFull(bytes.NewReader(trunc)); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("truncated checkpoint classified %v, want ErrCheckpointCorrupt", err)
	}

	// Decodable payloads with impossible shapes are mismatches.
	bad := []checkpoint{
		{Geom: grid.Geometry{Nx: 0, Ny: 1, Nz: 1, Ng: 2, X0: 0, X1: 1}},
		{Geom: g.Geometry, BCs: g.BCs, U: []float64{1, 2, 3}},
	}
	for i, cp := range bad {
		var b bytes.Buffer
		if err := sealCheckpoint(&b, &cp); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := LoadCheckpointFull(&b)
		if !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("bad shape %d classified %v, want ErrCheckpointMismatch", i, err)
		}
		if errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("bad shape %d also classified as corrupt", i)
		}
	}
}

func TestExactCheckpointCarriesPrimitives(t *testing.T) {
	g := mkGrid1D()
	g.SetAllBCs(grid.Outflow)

	// Plain checkpoints report no primitives.
	var plain bytes.Buffer
	if err := SaveCheckpoint(&plain, g, 0.5); err != nil {
		t.Fatal(err)
	}
	_, _, prims, err := LoadCheckpointFull(&plain)
	if err != nil {
		t.Fatal(err)
	}
	if prims {
		t.Error("plain checkpoint claims primitives")
	}

	// Exact checkpoints restore U and W bit for bit, ghosts included.
	var exact bytes.Buffer
	if err := SaveCheckpointExact(&exact, g, 0.5); err != nil {
		t.Fatal(err)
	}
	g2, tt, prims, err := LoadCheckpointFull(&exact)
	if err != nil {
		t.Fatal(err)
	}
	if !prims || tt != 0.5 {
		t.Fatalf("exact load prims=%v t=%v", prims, tt)
	}
	for i, v := range g.U.Raw() {
		if g2.U.Raw()[i] != v {
			t.Fatalf("U[%d] differs", i)
		}
	}
	for i, v := range g.W.Raw() {
		if g2.W.Raw()[i] != v {
			t.Fatalf("W[%d] differs", i)
		}
	}
}
