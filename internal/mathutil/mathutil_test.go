package mathutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp(5,0,1) = %v", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp(-5,0,1) = %v", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("Clamp(0.5,0,1) = %v", got)
	}
}

func TestNorms(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{0, 0, 0}
	if got := L1Norm(a, b, 0.5); math.Abs(got-3) > 1e-15 {
		t.Errorf("L1Norm = %v, want 3", got)
	}
	if got := L2Norm(a, b, 1); math.Abs(got-math.Sqrt(14)) > 1e-14 {
		t.Errorf("L2Norm = %v", got)
	}
	if got := LInfNorm(a, b); got != 3 {
		t.Errorf("LInfNorm = %v", got)
	}
}

func TestNormsPanicOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	L1Norm([]float64{1}, []float64{1, 2}, 1)
}

func TestConvergenceOrder(t *testing.T) {
	// Second-order errors: e = C h^2.
	e1, e2 := 4.0, 1.0
	h1, h2 := 2.0, 1.0
	if got := ConvergenceOrder(e1, e2, h1, h2); math.Abs(got-2) > 1e-12 {
		t.Errorf("order = %v, want 2", got)
	}
	if got := ConvergenceOrder(0, 1, 2, 1); !math.IsNaN(got) {
		t.Errorf("order with zero error = %v, want NaN", got)
	}
}

func TestBisect(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	root, err := Bisect(f, 0, 2, 1e-12, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Errorf("root = %v", root)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 1e-12, 100); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x }
	root, err := Bisect(f, 0, 1, 1e-12, 100)
	if err != nil || root != 0 {
		t.Errorf("root = %v err = %v", root, err)
	}
}

func TestBrentPolynomial(t *testing.T) {
	f := func(x float64) float64 { return (x + 3) * (x - 1) * (x - 1) * (x - 1) }
	// Root at x = -3 bracketed in [-4, 0].
	root, err := Brent(f, -4, 0, 1e-13, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root+3) > 1e-9 {
		t.Errorf("root = %v, want -3", root)
	}
}

func TestBrentTranscendental(t *testing.T) {
	f := func(x float64) float64 { return math.Cos(x) - x }
	root, err := Brent(f, 0, 1, 1e-14, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f(root)) > 1e-12 {
		t.Errorf("f(root) = %v", f(root))
	}
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return 1 + x*x }
	if _, err := Brent(f, -1, 1, 1e-12, 50); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

// Brent must agree with Bisect on random monotone cubics.
func TestBrentMatchesBisect(t *testing.T) {
	prop := func(shift float64) bool {
		s := math.Mod(math.Abs(shift), 10)
		f := func(x float64) float64 { return x*x*x + x - s }
		rb, err1 := Bisect(f, -20, 20, 1e-13, 300)
		rr, err2 := Brent(f, -20, 20, 1e-13, 300)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(rb-rr) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-15 {
			t.Errorf("xs[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
}

func TestCellCenters(t *testing.T) {
	xs := CellCenters(0, 1, 4)
	want := []float64{0.125, 0.375, 0.625, 0.875}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-15 {
			t.Errorf("xs[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
}

func TestIsFiniteAll(t *testing.T) {
	if !IsFiniteAll([]float64{1, 2, 3}) {
		t.Error("finite slice reported non-finite")
	}
	if IsFiniteAll([]float64{1, math.NaN()}) {
		t.Error("NaN not detected")
	}
	if IsFiniteAll([]float64{math.Inf(1)}) {
		t.Error("Inf not detected")
	}
}
