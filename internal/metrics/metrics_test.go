package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestThroughput(t *testing.T) {
	// 2e6 zone updates in 1s = 2 Mzups.
	if got := Throughput(2_000_000, time.Second); math.Abs(got-2) > 1e-12 {
		t.Errorf("Throughput = %v", got)
	}
	if got := Throughput(100, 0); got != 0 {
		t.Errorf("zero-time throughput = %v", got)
	}
}

func TestSpeedupEfficiency(t *testing.T) {
	if s := Speedup(8*time.Second, 2*time.Second); math.Abs(s-4) > 1e-12 {
		t.Errorf("Speedup = %v", s)
	}
	if e := Efficiency(8*time.Second, 2*time.Second, 4); math.Abs(e-100) > 1e-9 {
		t.Errorf("Efficiency = %v", e)
	}
	if e := Efficiency(8*time.Second, 4*time.Second, 4); math.Abs(e-50) > 1e-9 {
		t.Errorf("Efficiency = %v", e)
	}
	if Speedup(time.Second, 0) != 0 || Efficiency(time.Second, 0, 2) != 0 {
		t.Error("degenerate inputs not guarded")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Strong scaling", "ranks", "time", "speedup")
	tb.AddRow(1, 8.0, 1.0)
	tb.AddRow(16, 0.61234567, 13.066)
	s := tb.String()
	for _, want := range []string{"Strong scaling", "ranks", "speedup", "13.07", "0.6123"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	if len(tb.rows) != 2 {
		t.Errorf("rows = %d", len(tb.rows))
	}
}

func TestTableDurationFormatting(t *testing.T) {
	tb := NewTable("", "phase", "t")
	tb.AddRow("step", 1500*time.Microsecond)
	if !strings.Contains(tb.String(), "1.5ms") {
		t.Errorf("duration not formatted:\n%s", tb.String())
	}
}
