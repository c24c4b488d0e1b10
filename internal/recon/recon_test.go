package recon

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// allSchemes returns every scheme under test.
func allSchemes() []Scheme {
	return []Scheme{
		PCM{},
		PLM{Lim: Minmod},
		PLM{Lim: MonotonizedCentral},
		PLM{Lim: VanLeer},
		PPM{},
		WENO5{},
		WENOZ{},
	}
}

// evalOn fills a row with f(x_j) for cells j = 0..n−1 on a unit spacing.
func evalOn(n int, f func(float64) float64) []float64 {
	u := make([]float64, n)
	for j := range u {
		u[j] = f(float64(j))
	}
	return u
}

func reconstruct(s Scheme, u []float64) (uL, uR []float64) {
	n := len(u)
	uL = make([]float64, n+1)
	uR = make([]float64, n+1)
	s.Reconstruct(u, uL, uR)
	return uL, uR
}

// Every scheme must reproduce constant data exactly — the most basic
// consistency requirement.
func TestConstantPreservation(t *testing.T) {
	for _, s := range allSchemes() {
		u := evalOn(32, func(float64) float64 { return 3.7 })
		uL, uR := reconstruct(s, u)
		g := s.Ghost()
		for i := g; i <= len(u)-g; i++ {
			if math.Abs(uL[i]-3.7) > 1e-14 || math.Abs(uR[i]-3.7) > 1e-14 {
				t.Errorf("%s: face %d = (%v, %v), want 3.7", s.Name(), i, uL[i], uR[i])
			}
		}
	}
}

// Schemes of order >= 2 must reproduce linear data exactly away from
// boundaries (limiters are inactive on monotone linear data).
func TestLinearExactness(t *testing.T) {
	for _, s := range allSchemes() {
		if s.Order() < 2 {
			continue
		}
		u := evalOn(32, func(x float64) float64 { return 2*x - 5 })
		uL, uR := reconstruct(s, u)
		g := s.Ghost()
		for i := g; i <= len(u)-g; i++ {
			// Face i sits at x = i − 1/2 on the unit grid (cell j centre at x=j).
			want := 2*(float64(i)-0.5) - 5
			if math.Abs(uL[i]-want) > 1e-12 || math.Abs(uR[i]-want) > 1e-12 {
				t.Errorf("%s: face %d = (%v, %v), want %v", s.Name(), i, uL[i], uR[i], want)
			}
		}
	}
}

// PCM reduces to neighbouring cell values.
func TestPCMIsGodunov(t *testing.T) {
	u := []float64{1, 2, 3, 4, 5}
	uL, uR := reconstruct(PCM{}, u)
	for i := 1; i <= 4; i++ {
		if uL[i] != u[i-1] || uR[i] != u[i] {
			t.Errorf("face %d: (%v,%v)", i, uL[i], uR[i])
		}
	}
}

// TVD property: PLM reconstructions must stay within the range of the two
// adjacent cells on arbitrary data (no new extrema at faces).
func TestPLMBoundedByNeighbours(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, lim := range []Limiter{Minmod, MonotonizedCentral, VanLeer} {
		s := PLM{Lim: lim}
		for trial := 0; trial < 200; trial++ {
			u := make([]float64, 24)
			for j := range u {
				u[j] = rng.NormFloat64()
			}
			uL, uR := reconstruct(s, u)
			for i := 2; i <= len(u)-2; i++ {
				// Both face states lie in the hull of the two adjacent
				// cells: |slope| <= 2|du| on each side for all three
				// limiters.
				lo := math.Min(u[i-1], u[i])
				hi := math.Max(u[i-1], u[i])
				if uL[i] < lo-1e-12 || uL[i] > hi+1e-12 {
					t.Fatalf("%s: uL[%d]=%v outside [%v,%v]", s.Name(), i, uL[i], lo, hi)
				}
				if uR[i] < lo-1e-12 || uR[i] > hi+1e-12 {
					t.Fatalf("%s: uR[%d]=%v outside [%v,%v]", s.Name(), i, uR[i], lo, hi)
				}
			}
		}
	}
}

// Monotone data must stay monotone across all face states for the TVD
// schemes (PLM and PPM).
func TestMonotonicityPreserved(t *testing.T) {
	u := evalOn(24, func(x float64) float64 { return math.Tanh(0.8 * (x - 12)) })
	for _, s := range []Scheme{
		PLM{Lim: Minmod}, PLM{Lim: MonotonizedCentral}, PLM{Lim: VanLeer}, PPM{},
	} {
		uL, uR := reconstruct(s, u)
		g := s.Ghost()
		prev := math.Inf(-1)
		for i := g; i <= len(u)-g; i++ {
			if uL[i] < prev-1e-12 {
				t.Errorf("%s: uL[%d]=%v breaks monotonicity (prev %v)", s.Name(), i, uL[i], prev)
			}
			if uR[i] < uL[i]-0.5 { // faces ordered within a jump tolerance
				t.Errorf("%s: face %d states wildly inverted: %v %v", s.Name(), i, uL[i], uR[i])
			}
			prev = uL[i]
		}
	}
}

// PPM cell parabola edges must never overshoot the cell averages of the
// neighbouring cells on discontinuous data.
func TestPPMNoOvershoot(t *testing.T) {
	u := evalOn(24, func(x float64) float64 {
		if x < 12 {
			return 10
		}
		return 1
	})
	uL, uR := reconstruct(PPM{}, u)
	for i := 3; i <= len(u)-3; i++ {
		for _, v := range []float64{uL[i], uR[i]} {
			if v > 10+1e-12 || v < 1-1e-12 {
				t.Errorf("face %d value %v outside data range [1,10]", i, v)
			}
		}
	}
}

// WENO must not produce significant over/undershoots at a step (ENO
// property: O(1) oscillations are forbidden, small ones are inherent).
func TestWENO5EssentiallyNonOscillatory(t *testing.T) {
	u := evalOn(30, func(x float64) float64 {
		if x < 15 {
			return 1
		}
		return 0
	})
	uL, uR := reconstruct(WENO5{}, u)
	for i := 3; i <= len(u)-3; i++ {
		for _, v := range []float64{uL[i], uR[i]} {
			if v > 1.05 || v < -0.05 {
				t.Errorf("face %d value %v oscillates beyond 5%%", i, v)
			}
		}
	}
}

// Convergence order on smooth data: reconstruct sin on successively finer
// grids and verify the error at faces shrinks at the formal order (within
// half an order to absorb limiter effects near inflection points for PLM).
func TestSmoothConvergenceOrder(t *testing.T) {
	for _, tc := range []struct {
		s        Scheme
		minOrder float64
	}{
		{PLM{Lim: MonotonizedCentral}, 1.7},
		{PPM{}, 2.5},
		{WENO5{}, 3.5},
		{WENOZ{}, 4.0},
	} {
		err := func(n int) float64 {
			h := 2 * math.Pi / float64(n)
			u := make([]float64, n)
			for j := range u {
				// Cell averages of sin over [x_j−h/2, x_j+h/2]:
				// (cos(a)−cos(b))/h.
				a := float64(j) * h
				b := a + h
				u[j] = (math.Cos(a) - math.Cos(b)) / h
			}
			uL := make([]float64, n+1)
			uR := make([]float64, n+1)
			tc.s.Reconstruct(u, uL, uR)
			g := tc.s.Ghost()
			e := 0.0
			cnt := 0
			for i := g; i <= n-g; i++ {
				x := float64(i) * h // face i at x_{i−1/2} = i*h − h... face between cells i−1,i is at i*h
				want := math.Sin(x)
				e += math.Abs(uL[i]-want) + math.Abs(uR[i]-want)
				cnt += 2
			}
			return e / float64(cnt)
		}
		e1, e2 := err(64), err(128)
		order := math.Log2(e1 / e2)
		if order < tc.minOrder {
			t.Errorf("%s: observed order %.2f < %.2f (e64=%.3e e128=%.3e)",
				tc.s.Name(), order, tc.minOrder, e1, e2)
		}
	}
}

func TestGhostCounts(t *testing.T) {
	want := map[string]int{
		"pcm": 1, "plm-minmod": 2, "plm-mc": 2, "plm-vanleer": 2,
		"ppm": 3, "weno5": 3, "wenoz": 3,
	}
	for _, s := range allSchemes() {
		if g, ok := want[s.Name()]; !ok || s.Ghost() != g {
			t.Errorf("%s: ghost = %d, want %d", s.Name(), s.Ghost(), g)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"pcm", "plm", "plm-mc", "plm-minmod", "plm-vanleer", "ppm", "weno5", "wenoz"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestShortRowPanics(t *testing.T) {
	for _, s := range allSchemes() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: short row not rejected", s.Name())
				}
			}()
			u := make([]float64, 2*s.Ghost())
			s.Reconstruct(u, make([]float64, len(u)+1), make([]float64, len(u)+1))
		}()
	}
}

func TestShortFaceArraysPanic(t *testing.T) {
	s := PLM{Lim: Minmod}
	defer func() {
		if recover() == nil {
			t.Error("short face arrays not rejected")
		}
	}()
	u := make([]float64, 16)
	s.Reconstruct(u, make([]float64, 10), make([]float64, 10))
}

// The two WENO edge evaluations must be mirror images: reconstructing
// reversed data must give reversed faces.
func TestWENO5MirrorSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 20
	u := make([]float64, n)
	for j := range u {
		u[j] = rng.Float64()
	}
	rev := make([]float64, n)
	for j := range rev {
		rev[j] = u[n-1-j]
	}
	uL, uR := reconstruct(WENO5{}, u)
	rL, rR := reconstruct(WENO5{}, rev)
	for i := 3; i <= n-3; i++ {
		// Face i of u corresponds to face n−i of rev with L/R swapped.
		if math.Abs(uL[i]-rR[n-i]) > 1e-13 || math.Abs(uR[i]-rL[n-i]) > 1e-13 {
			t.Fatalf("mirror symmetry broken at face %d: (%v,%v) vs (%v,%v)",
				i, uL[i], uR[i], rR[n-i], rL[n-i])
		}
	}
}

// Property check via testing/quick: for every TVD scheme and random data,
// face states stay within the global data range (no new global extrema),
// and every scheme maps finite data to finite faces.
func TestQuickFaceBounds(t *testing.T) {
	type row [16]float64
	prop := func(r row) bool {
		u := make([]float64, len(r))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			u[i] = math.Mod(v, 1e6)
			if u[i] < lo {
				lo = u[i]
			}
			if u[i] > hi {
				hi = u[i]
			}
		}
		for _, s := range []Scheme{PLM{Lim: Minmod}, PLM{Lim: MonotonizedCentral}, PLM{Lim: VanLeer}, PPM{}} {
			uL := make([]float64, len(u)+1)
			uR := make([]float64, len(u)+1)
			s.Reconstruct(u, uL, uR)
			for i := s.Ghost(); i <= len(u)-s.Ghost(); i++ {
				tol := 1e-9 * (1 + math.Abs(lo) + math.Abs(hi))
				if uL[i] < lo-tol || uL[i] > hi+tol || uR[i] < lo-tol || uR[i] > hi+tol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// WENO-Z must be essentially non-oscillatory like WENO5 and at least as
// accurate on smooth data (its weights restore order at critical points).
func TestWENOZProperties(t *testing.T) {
	// Step data: bounded overshoot.
	u := evalOn(30, func(x float64) float64 {
		if x < 15 {
			return 1
		}
		return 0
	})
	uL, uR := reconstruct(WENOZ{}, u)
	for i := 3; i <= len(u)-3; i++ {
		for _, v := range []float64{uL[i], uR[i]} {
			if v > 1.05 || v < -0.05 {
				t.Errorf("face %d value %v oscillates beyond 5%%", i, v)
			}
		}
	}
	// Mirror symmetry.
	rng := rand.New(rand.NewSource(5))
	n := 20
	w := make([]float64, n)
	for j := range w {
		w[j] = rng.Float64()
	}
	rev := make([]float64, n)
	for j := range rev {
		rev[j] = w[n-1-j]
	}
	wL, wR := reconstruct(WENOZ{}, w)
	rL, rR := reconstruct(WENOZ{}, rev)
	for i := 3; i <= n-3; i++ {
		if math.Abs(wL[i]-rR[n-i]) > 1e-13 || math.Abs(wR[i]-rL[n-i]) > 1e-13 {
			t.Fatalf("mirror symmetry broken at face %d", i)
		}
	}
	// Accuracy at a critical point: reconstruct sin around its extremum
	// and compare against WENO5 — Z weights must not be worse.
	m := 64
	h := 2 * math.Pi / float64(m)
	u2 := make([]float64, m)
	for j := range u2 {
		a := float64(j) * h
		u2[j] = (math.Cos(a) - math.Cos(a+h)) / h
	}
	errOf := func(s Scheme) float64 {
		aL := make([]float64, m+1)
		aR := make([]float64, m+1)
		s.Reconstruct(u2, aL, aR)
		e := 0.0
		for i := 3; i <= m-3; i++ {
			want := math.Sin(float64(i) * h)
			e += math.Abs(aL[i]-want) + math.Abs(aR[i]-want)
		}
		return e
	}
	if ez, e5 := errOf(WENOZ{}), errOf(WENO5{}); ez > e5*1.05 {
		t.Errorf("WENO-Z error %v worse than WENO5 %v", ez, e5)
	}
}

// Same symmetry for PLM and PPM.
func TestPLMPPMMirrorSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 20
	u := make([]float64, n)
	for j := range u {
		u[j] = rng.Float64()
	}
	rev := make([]float64, n)
	for j := range rev {
		rev[j] = u[n-1-j]
	}
	for _, s := range []Scheme{PLM{Lim: Minmod}, PLM{Lim: MonotonizedCentral}, PPM{}} {
		uL, uR := reconstruct(s, u)
		rL, rR := reconstruct(s, rev)
		g := s.Ghost()
		for i := g; i <= n-g; i++ {
			if math.Abs(uL[i]-rR[n-i]) > 1e-13 || math.Abs(uR[i]-rL[n-i]) > 1e-13 {
				t.Fatalf("%s: mirror symmetry broken at face %d", s.Name(), i)
			}
		}
	}
}

// The limiter forms the per-row loops replaced, kept as their oracles.

// sign returns -1, 0 or +1 according to the sign of x.
func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

// minmod returns zero when a and b differ in sign, otherwise the one of
// smaller magnitude.
func minmod(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if math.Abs(a) < math.Abs(b) {
		return a
	}
	return b
}

// minmod3 returns zero unless all arguments share a sign, otherwise the
// smallest magnitude with that sign.
func minmod3(a, b, c float64) float64 {
	sa, sb, sc := sign(a), sign(b), sign(c)
	if sa != sb || sb != sc || sa == 0 {
		return 0
	}
	return sa * math.Min(math.Abs(a), math.Min(math.Abs(b), math.Abs(c)))
}

// mc returns the monotonized-central limiter minmod(2a, 2b, (a+b)/2).
func mc(a, b float64) float64 {
	return minmod3(2*a, 2*b, 0.5*(a+b))
}

// vanLeer returns the harmonic-mean limiter 2/(1/a + 1/b).
func vanLeer(a, b float64) float64 {
	if a == 0 || b == 0 || (a > 0) != (b > 0) {
		return 0
	}
	return 2 / (1/a + 1/b)
}

// min3 returns the minimum of three values.
func min3(a, b, c float64) float64 {
	return math.Min(a, math.Min(b, c))
}

// refSlope is the per-face limiter switch the per-row loops replaced.
func refSlope(lim Limiter, dm, dp float64) float64 {
	switch lim {
	case Minmod:
		return minmod(dm, dp)
	case MonotonizedCentral:
		return mc(dm, dp)
	case VanLeer:
		return vanLeer(dm, dp)
	}
	panic("recon: unknown limiter")
}

// plmReference is the naive two-slopes-per-face PLM loop the slope-carrying
// Reconstruct replaced; the rewrite must be bitwise identical to it.
func plmReference(p PLM, u, uL, uR []float64) {
	n := len(u)
	for i := 2; i <= n-2; i++ {
		jm := i - 1
		sL := refSlope(p.Lim, u[jm]-u[jm-1], u[jm+1]-u[jm])
		sR := refSlope(p.Lim, u[i]-u[i-1], u[i+1]-u[i])
		uL[i] = u[jm] + 0.5*sL
		uR[i] = u[i] - 0.5*sR
	}
}

func TestPLMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, lim := range []Limiter{Minmod, MonotonizedCentral, VanLeer} {
		p := PLM{Lim: lim}
		for _, n := range []int{5, 6, 12, 53} {
			u := make([]float64, n)
			for j := range u {
				switch rng.Intn(4) {
				case 0:
					u[j] = rng.NormFloat64()
				case 1:
					u[j] = 0
				case 2:
					u[j] = math.Trunc(rng.NormFloat64()) // repeated plateaus
				default:
					u[j] = rng.NormFloat64() * 1e-300
				}
			}
			gotL, gotR := reconstruct(p, u)
			wantL := make([]float64, n+1)
			wantR := make([]float64, n+1)
			plmReference(p, u, wantL, wantR)
			for i := 2; i <= n-2; i++ {
				if gotL[i] != wantL[i] || gotR[i] != wantR[i] {
					t.Fatalf("%s n=%d face %d: got (%v,%v) want (%v,%v)",
						p.Name(), n, i, gotL[i], gotR[i], wantL[i], wantR[i])
				}
			}
		}
		// The ppmRow rows, IEEE edge cells included; every face slot.
		prop := func(u ppmRow) bool {
			gotL, gotR := reconstruct(p, u)
			wantL := make([]float64, len(u)+1)
			wantR := make([]float64, len(u)+1)
			plmReference(p, u, wantL, wantR)
			for i := range gotL {
				if !sameFace(gotL[i], wantL[i]) || !sameFace(gotR[i], wantR[i]) {
					t.Errorf("%s n=%d face %d: got (%v,%v) want (%v,%v)",
						p.Name(), len(u), i, gotL[i], gotR[i], wantL[i], wantR[i])
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(17))}); err != nil {
			t.Fatal(err)
		}
	}
}

// ppmReference is the three-pass PPM — limited slopes, interface values
// into a buffer, then one monotonised parabola per face side — that the
// streaming Reconstruct replaced; the rewrite must be bitwise identical.
func ppmReference(u, uL, uR []float64) {
	n := len(u)
	slope := func(j int) float64 {
		dm, dp := u[j]-u[j-1], u[j+1]-u[j]
		if dm*dp <= 0 {
			return 0
		}
		d := 0.5 * (u[j+1] - u[j-1])
		return sign(d) * min3(2*absf(dm), 2*absf(dp), absf(d))
	}
	iface := make([]float64, n+1)
	for i := 2; i <= n-2; i++ {
		j := i - 1
		iface[i] = 0.5*(u[j]+u[j+1]) - (slope(j+1)-slope(j))/6
	}
	for i := 3; i <= n-3; i++ {
		for side := 0; side < 2; side++ {
			j := i - 1 + side
			aL, aR := iface[j], iface[j+1]
			u0 := u[j]
			switch {
			case (aR-u0)*(u0-aL) <= 0:
				aL, aR = u0, u0
			case (aR-aL)*(u0-0.5*(aL+aR)) > (aR-aL)*(aR-aL)/6:
				aL = 3*u0 - 2*aR
			case (aR-aL)*(u0-0.5*(aL+aR)) < -(aR-aL)*(aR-aL)/6:
				aR = 3*u0 - 2*aL
			}
			if side == 0 {
				uL[i] = aR
			} else {
				uR[i] = aL
			}
		}
	}
}

// ppmRow draws rows that hit every branch of the slope limiter and the
// monotonization: noise, exact zeros, plateaus with ties, smooth ramps,
// magnitudes from 1e-40 to 1e40, rows of subnormals, and NaN, ±Inf, ±0
// and subnormal cells dropped into otherwise ordinary rows.
type ppmRow []float64

// Generate implements quick.Generator; rows run from the minimum n = 7.
func (ppmRow) Generate(rng *rand.Rand, _ int) reflect.Value {
	u := make(ppmRow, 7+rng.Intn(60))
	scale := math.Pow(10, float64(rng.Intn(81)-40))
	for j := range u {
		switch rng.Intn(5) {
		case 0:
			u[j] = rng.NormFloat64()
		case 1:
			u[j] = 0
		case 2:
			u[j] = math.Trunc(2 * rng.NormFloat64()) // repeated plateaus
		case 3:
			u[j] = float64(j) + 0.1*rng.NormFloat64() // mostly monotone
		default:
			if j > 0 {
				u[j] = u[j-1] // flat run
			}
		}
		u[j] *= scale
	}
	switch rng.Intn(8) {
	case 0: // a row of subnormals, where halving a difference can underflow
		for j := range u {
			u[j] = math.Trunc(4*rng.NormFloat64()) * math.SmallestNonzeroFloat64
		}
	case 1, 2:
		for range 1 + rng.Intn(3) {
			u[rng.Intn(len(u))] = specialCells[rng.Intn(len(specialCells))]
		}
	}
	return reflect.ValueOf(u)
}

// specialCells are the IEEE edge values a row can carry into a kernel.
var specialCells = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310, -1e-310}

// sameFace reports whether two face values agree bit for bit, or are both
// NaN: the builtin min and math.Min may return different NaN payloads.
func sameFace(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func TestPPMMatchesReference(t *testing.T) {
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = sentinel
		}
		return v
	}
	// Filled faces compare as sameFace; the rest must keep the sentinel's
	// exact bits.
	same := func(a, b []float64) int {
		for i := range a {
			if i >= 3 && i <= len(a)-4 {
				if !sameFace(a[i], b[i]) {
					return i
				}
			} else if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return i
			}
		}
		return -1
	}
	prop := func(u ppmRow) bool {
		n := len(u)
		gotL, gotR, wantL, wantR := fill(n+1), fill(n+1), fill(n+1), fill(n+1)
		PPM{}.Reconstruct(u, gotL, gotR)
		ppmReference(u, wantL, wantR)
		// Whole arrays: faces outside [3, n−3] must keep the sentinel.
		if i := same(gotL, wantL); i >= 0 {
			t.Errorf("n=%d uL[%d] = %v, reference %v", n, i, gotL[i], wantL[i])
			return false
		}
		if i := same(gotR, wantR); i >= 0 {
			t.Errorf("n=%d uR[%d] = %v, reference %v", n, i, gotR[i], wantR[i])
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
	if !prop(ppmRow{3, 1, 4, 1, 5, 9, 2}) { // the minimum row
		t.Fatal("n = 7 differs")
	}
}

func TestMCSlopeBitwise(t *testing.T) {
	check := func(dm, dp float64) bool {
		got := mcSlope(dm, dp)
		want := mc(dm, dp)
		// NaN inputs must give the exact zero the reference gives.
		return got == want && math.Signbit(got) == math.Signbit(want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	edges := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, 1, -1,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, a := range edges {
		for _, b := range edges {
			got, want := mcSlope(a, b), mc(a, b)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("mcSlope(%v,%v) = %v, want %v", a, b, got, want)
			}
			if got == want && math.Signbit(got) != math.Signbit(want) {
				t.Fatalf("mcSlope(%v,%v) sign of zero differs", a, b)
			}
		}
	}
}

// The inlined minmod and van Leer limiters must be their reference forms
// bit for bit, NaN and signed zeros included.
func TestLimiterSlopesBitwise(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want func(dm, dp float64) float64
	}{
		{"minmod", minmodSlope, minmod},
		{"vanleer", vanLeerSlope, vanLeer},
	} {
		check := func(dm, dp float64) bool {
			return sameFace(c.got(dm, dp), c.want(dm, dp))
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 20000}); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		edges := append([]float64{1, -1, 1e-300, -1e-300, math.MaxFloat64, -math.MaxFloat64}, specialCells...)
		for _, a := range edges {
			for _, b := range edges {
				if got, want := c.got(a, b), c.want(a, b); !sameFace(got, want) {
					t.Fatalf("%s(%v,%v) = %v, want %v", c.name, a, b, got, want)
				}
			}
		}
	}
}

func TestMinmodBasic(t *testing.T) {
	for _, c := range []struct{ a, b, want float64 }{
		{1, 2, 1}, {-3, -2, -2}, {1, -1, 0}, {0, 4, 0},
	} {
		if got := minmodSlope(c.a, c.b); got != c.want {
			t.Errorf("minmodSlope(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// minmodSlope must be symmetric, bounded by both arguments in magnitude,
// and share the sign of its arguments: the defining TVD-limiter
// properties.
func TestMinmodProperties(t *testing.T) {
	prop := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		m := minmodSlope(a, b)
		if m != minmodSlope(b, a) {
			return false
		}
		if math.Abs(m) > math.Abs(a) && math.Abs(m) > math.Abs(b) {
			return false
		}
		if a*b > 0 && sign(m) != sign(a) {
			return false
		}
		if a*b <= 0 && m != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// mcSlope must reduce to the centred slope on smooth monotone data and
// vanish at extrema.
func TestMCLimiter(t *testing.T) {
	if got := mcSlope(1, 1); got != 1 {
		t.Errorf("mcSlope(1,1) = %v, want 1", got)
	}
	if got := mcSlope(1, -1); got != 0 {
		t.Errorf("mcSlope(1,-1) = %v, want 0", got)
	}
	// Steep one-sided gradient: limited to 2x the smaller slope.
	if got := mcSlope(1, 100); got != 2 {
		t.Errorf("mcSlope(1,100) = %v, want 2", got)
	}
}

// mcSlope is the three-argument minmod of 2a, 2b and (a+b)/2: zero unless
// a and b share a sign, otherwise that sign and no larger in magnitude
// than any of the three.
func TestMCProperties(t *testing.T) {
	prop := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		m := mcSlope(a, b)
		for _, c := range []float64{2 * a, 2 * b, 0.5 * (a + b)} {
			if math.Abs(m) > math.Abs(c)+1e-300 {
				return false
			}
		}
		if sign(a) == sign(b) && sign(a) != 0 {
			return sign(m) == sign(a)
		}
		return m == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestVanLeer(t *testing.T) {
	if got := vanLeerSlope(1, 1); got != 1 {
		t.Errorf("vanLeerSlope(1,1) = %v", got)
	}
	if got := vanLeerSlope(2, -3); got != 0 {
		t.Errorf("vanLeerSlope(2,-3) = %v", got)
	}
	// Harmonic mean of 1 and 3 slopes: 2*1*3/4 = 1.5.
	if got := vanLeerSlope(1, 3); math.Abs(got-1.5) > 1e-15 {
		t.Errorf("vanLeerSlope(1,3) = %v, want 1.5", got)
	}
}

func TestVanLeerBoundedByMC(t *testing.T) {
	prop := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		// Both limiters are TVD: |phi| <= |MC| is not a theorem, but both
		// must be bounded by 2*min(|a|,|b|) on same-sign input.
		vl := math.Abs(vanLeerSlope(a, b))
		bound := 2 * math.Min(math.Abs(a), math.Abs(b))
		return vl <= bound*(1+1e-12)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
