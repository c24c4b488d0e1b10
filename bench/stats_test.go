package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {10, 10}, {11, 20}, {25, 30}, {50, 50}, {75, 80}, {90, 90}, {95, 100}, {100, 100},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 25); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("no samples must give NaN, not a number that looks measured")
	}
}

// The p25 round is a measured round: rank ceil(n/4) of the sorted times.
func TestP25OfRounds(t *testing.T) {
	for _, tc := range []struct {
		rounds []float64
		p25    float64
	}{
		{[]float64{1.3, 1.0, 1.2, 1.1, 1.6}, 1.1},        // n=5: rank 2
		{[]float64{1.3, 1.0, 1.2, 1.1, 1.6, 1.05}, 1.05}, // n=6: rank 2
		{[]float64{5, 4, 3, 2, 1, 8, 7, 6}, 2},           // n=8: rank 2
		{[]float64{9, 1, 8, 2, 7, 3, 6, 4, 5}, 3},        // n=9: rank 3
		{[]float64{2, 1}, 1},                             // n=2: rank 1
	} {
		st := statOfRounds(tc.rounds)
		if st.P25 != tc.p25 || st.N != len(tc.rounds) {
			t.Errorf("%v: p25 %v of %d, want %v", tc.rounds, st.P25, st.N, tc.p25)
		}
	}
	st := statOfRounds([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	if st.P50 != 4 || st.IQR != 4 || st.relSpread() != 1 {
		t.Errorf("median %v iqr %v spread %v, want 4, 4, 1", st.P50, st.IQR, st.relSpread())
	}
}

// A tail percentile needs ten samples strictly beyond its rank.
func TestTailPercentileTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, give float64
	}{
		{1000, 95, 95}, // 50 beyond
		{400, 95, 95},  // 20 beyond
		{200, 95, 95},  // exactly 10 beyond
		{199, 95, 90},  // rank 190, 9 beyond: fall back
		{100, 95, 90},  // p95 leaves 5, p90 leaves 10
		{99, 95, 75},   // p90 leaves 9
		{40, 95, 75},   // p75 leaves 10
		{39, 95, 50},   // p75 leaves 9
		{16, 95, 50},   // never below the median
		{1000, 99.9, 99},
		{100000, 99.9, 99.9},
	} {
		if got := tailPercentile(tc.n, tc.want); got != tc.give {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", tc.n, tc.want, got, tc.give)
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	ls := statOfLatencies(samples, 95)
	if ls.P50 != 50 || ls.TailP != 90 || ls.Tail != 90 || ls.N != 100 {
		t.Errorf("latency stat %+v", ls)
	}
}
