package main

import (
	"math"
	"testing"
)

func TestConvergenceOrder(t *testing.T) {
	// Second-order errors: e = C h^2.
	e1, e2 := 4.0, 1.0
	h1, h2 := 2.0, 1.0
	if got := convergenceOrder(e1, e2, h1, h2); math.Abs(got-2) > 1e-12 {
		t.Errorf("order = %v, want 2", got)
	}
	if got := convergenceOrder(0, 1, 2, 1); !math.IsNaN(got) {
		t.Errorf("order with zero error = %v, want NaN", got)
	}
}
