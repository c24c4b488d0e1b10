package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "step", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "step", Start: 50, End: 90},
		{ID: 4, Parent: 2, Name: "rhs", Start: 15, End: 35},
		// Concurrent children of span 3 overlap on [60, 70): counted once.
		{ID: 5, Parent: 3, Name: "job", Start: 55, End: 70},
		{ID: 6, Parent: 3, Name: "job", Start: 60, End: 80},
		// A child that sticks out of its parent is clipped to it.
		{ID: 7, Parent: 3, Name: "late", Start: 85, End: 120},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"round": 100 - 30 - 40,             // minus the two steps
		"step":  (30 - 20) + (40 - 25 - 5), // span 2 minus rhs; span 3 minus [55,80) and [85,90)
		"rhs":   20,
		"job":   15 + 20,
		"late":  35,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
	if tot := totalTimes(spans); tot["step"] != 70 || tot["job"] != 35 {
		t.Errorf("total times %v", tot)
	}
	if c := spanCover(spans, "round"); c != 0.7 {
		t.Errorf("span cover %v, want 0.7", c)
	}
	if c := spanCover(spans, "absent"); c != 0 {
		t.Errorf("cover of no spans %v, want 0", c)
	}
}

func TestCoveredMergesIntervals(t *testing.T) {
	for _, tc := range []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 8}, {0, 10}}, 10},       // nested
		{[][2]int64{{0, 4}, {6, 10}}, 8},        // gap
		{[][2]int64{{-5, 3}, {9, 20}}, 4},       // clipped at both ends
		{[][2]int64{{2, 6}, {4, 8}, {8, 9}}, 7}, // chained
		{[][2]int64{{20, 30}}, 0},               // outside
	} {
		if got := covered(0, 10, tc.ivs); got != tc.want {
			t.Errorf("covered(%v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}

func TestTracerRecordsAndFlushes(t *testing.T) {
	var off *tracer
	if id := off.begin(0, "x", 0); id != 0 {
		t.Fatalf("nil tracer handed out span %d", id)
	}
	off.end(0)
	if err := off.flush(t.TempDir()); err != nil {
		t.Fatal(err)
	}

	tr := newTracer("wl")
	root := tr.begin(0, "round", 3)
	kid := tr.begin(root, "step", 3)
	tr.end(kid)
	open := tr.begin(root, "unfinished", 3)
	tr.end(root)
	_ = open
	dir := t.TempDir()
	if err := tr.flush(dir); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "trace-wl.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("flushed %d spans, want the 2 finished ones", len(got))
	}
	r, k := got[0], got[1]
	if r.Name != "round" || r.Parent != 0 || r.Workload != "wl" || r.Round != 3 ||
		k.Name != "step" || k.Parent != r.ID || k.Start < r.Start || k.End > r.End || k.End < k.Start {
		t.Errorf("spans %+v %+v", r, k)
	}
}
