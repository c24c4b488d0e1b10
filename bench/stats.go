package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending slice: the
// value at 1-based rank ceil(p/100·n), clamped to [1, n]. Nearest rank
// always returns a measured sample, never an interpolation between two.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// roundStat is the statistic every throughput-type metric is taken from.
// Rounds repeat bit-identical work and noise on a shared host only adds
// time, so the p25 round (nearest rank) estimates the undisturbed cost;
// median and IQR are published beside it so the spread stays visible.
type roundStat struct {
	P25, P50, IQR float64
	N             int
}

func statOfRounds(seconds []float64) roundStat {
	s := sortedCopy(seconds)
	return roundStat{
		P25: percentile(s, 25),
		P50: percentile(s, 50),
		IQR: percentile(s, 75) - percentile(s, 25),
		N:   len(s),
	}
}

// relSpread is IQR over median, the quantity -compare holds against a
// metric's bound to decide whether a row is resolved.
func (r roundStat) relSpread() float64 {
	if r.P50 == 0 {
		return 0
	}
	return r.IQR / r.P50
}

// tailLadder lists the tail percentiles a latency metric may report.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest ladder percentile not above want that
// still has at least ten samples strictly beyond its nearest rank — a tail
// read off fewer samples is one or two outliers, not a percentile. It never
// drops below the median.
func tailPercentile(n int, want float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if p > want {
			break
		}
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			best = p
		}
	}
	return best
}

// latencyStat summarises latency samples: the median, and the tail at the
// highest supportable percentile up to want.
type latencyStat struct {
	P50, Tail float64
	TailP     float64 // percentile actually reported as Tail
	N         int
}

func statOfLatencies(samples []float64, want float64) latencyStat {
	s := sortedCopy(samples)
	p := tailPercentile(len(s), want)
	return latencyStat{P50: percentile(s, 50), Tail: percentile(s, p), TailP: p, N: len(s)}
}
