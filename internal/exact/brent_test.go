package exact

import (
	"math"
	"testing"
	"testing/quick"
)

// bisect finds a root of f in [a, b] by bisection to absolute tolerance tol.
// f(a) and f(b) must differ in sign. It is the reference brent is
// checked against.
func bisect(f func(float64) float64, a, b, tol float64, maxIter int) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if fa*fb > 0 {
		return 0, errNoBracket
	}
	for i := 0; i < maxIter; i++ {
		m := 0.5 * (a + b)
		fm := f(m)
		if fm == 0 || 0.5*(b-a) < tol {
			return m, nil
		}
		if fa*fm < 0 {
			b, fb = m, fm
		} else {
			a, fa = m, fm
		}
	}
	_ = fb
	return 0.5 * (a + b), errMaxIter
}

func TestBisect(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	root, err := bisect(f, 0, 2, 1e-12, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Errorf("root = %v", root)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := bisect(f, -1, 1, 1e-12, 100); err != errNoBracket {
		t.Errorf("err = %v, want errNoBracket", err)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x }
	root, err := bisect(f, 0, 1, 1e-12, 100)
	if err != nil || root != 0 {
		t.Errorf("root = %v err = %v", root, err)
	}
}

func TestBrentPolynomial(t *testing.T) {
	f := func(x float64) float64 { return (x + 3) * (x - 1) * (x - 1) * (x - 1) }
	// Root at x = -3 bracketed in [-4, 0].
	root, err := brent(f, -4, 0, 1e-13, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root+3) > 1e-9 {
		t.Errorf("root = %v, want -3", root)
	}
}

func TestBrentTranscendental(t *testing.T) {
	f := func(x float64) float64 { return math.Cos(x) - x }
	root, err := brent(f, 0, 1, 1e-14, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f(root)) > 1e-12 {
		t.Errorf("f(root) = %v", f(root))
	}
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return 1 + x*x }
	if _, err := brent(f, -1, 1, 1e-12, 50); err != errNoBracket {
		t.Errorf("err = %v, want errNoBracket", err)
	}
}

// brent must agree with bisect on random monotone cubics.
func TestBrentMatchesBisect(t *testing.T) {
	prop := func(shift float64) bool {
		s := math.Mod(math.Abs(shift), 10)
		f := func(x float64) float64 { return x*x*x + x - s }
		rb, err1 := bisect(f, -20, 20, 1e-13, 300)
		rr, err2 := brent(f, -20, 20, 1e-13, 300)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(rb-rr) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
