package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// row builds a ledger row with its own bound, so the tests hold whatever
// the registry's bounds are tuned to.
func row(metric, better string, bound, v, spread float64) ledgerRow {
	kind := "end_to_end"
	if bound < 0 {
		kind, bound = "per_layer", 0
	}
	return ledgerRow{Workload: wlFused, Metric: metric, Value: v, Unit: "u", Kind: kind, Better: better, Bound: bound, Spread: spread}
}

func TestJudgeRow(t *testing.T) {
	lower := func(v, spread float64) ledgerRow { return row("t", "lower", 0.10, v, spread) }
	higher := func(v float64) ledgerRow { return row("r", "higher", 0.10, v, 0) }
	exact := func(v float64) ledgerRow { return row("e", "lower", 0, v, 0) }
	for _, tc := range []struct {
		name string
		a, b ledgerRow
		want string
	}{
		{"within bound", lower(1, 0.01), lower(1.09, 0.01), verdictOK},
		{"slower past bound", lower(1, 0.01), lower(1.11, 0.01), verdictViolation},
		{"faster", lower(1, 0.01), lower(0.5, 0.01), verdictOK},
		{"higher is better, drop past bound", higher(10), higher(8.9), verdictViolation},
		{"higher is better, gain", higher(10), higher(20), verdictOK},
		{"spread wider than bound", lower(1, 0.01), lower(1.5, 0.12), verdictUnresolved},
		{"spread wider than bound, looks fine", lower(1, 0.2), lower(1, 0.01), verdictUnresolved},
		{"exact metric unchanged", exact(0), exact(0), verdictOK},
		{"exact metric worse from zero", exact(0), exact(1e-12), verdictViolation},
		{"exact metric any increase", exact(0.01), exact(0.011), verdictViolation},
		{"exact metric better", exact(0.01), exact(0), verdictOK},
		{"per-layer rows carry no verdict", row("l", "lower", -1, 1, 0), row("l", "lower", -1, 9, 0), verdictInfo},
	} {
		if got := judgeRow(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareLedgers(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rows ...ledgerRow) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, ledger{Seconds: 10, Rows: rows}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	rows := func(t, r, l float64) []ledgerRow {
		return []ledgerRow{row("t", "lower", 0.1, t, 0.01), row("r", "higher", 0.1, r, 0.01), row("l", "lower", -1, l, 0)}
	}
	base := write("a.json", rows(1, 10, 100)...)
	same := write("b.json", rows(1.05, 9.6, 300)...)
	slow := write("c.json", rows(1.3, 7.7, 100)...)
	gone := write("d.json", rows(1, 10, 100)[:1]...)

	var out bytes.Buffer
	if err := compareLedgers(&out, base, same); err != nil {
		t.Errorf("agreeing ledgers: %v\n%s", err, out.String())
	}
	for _, want := range []string{"blast3d-fused", "1.0500", "0.1", "3.0000", "0 violation(s), 0 unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := compareLedgers(&out, base, slow); err == nil || !strings.Contains(out.String(), "2 violation(s)") {
		t.Errorf("regressed ledger: err %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareLedgers(&out, base, gone); err == nil || !strings.Contains(out.String(), "missing") {
		t.Errorf("ledger without a bounded row: err %v\n%s", err, out.String())
	}
	if err := compareLedgers(&out, base, filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}
