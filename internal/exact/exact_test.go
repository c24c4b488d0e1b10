package exact

import (
	"math"
	"math/rand"
	"testing"
)

// Martí & Müller Problem 1 (the relativistic Sod tube): Γ = 5/3,
// L = (10, 0, 13.33), R = (1, 0, 1e-6). Published solution:
// p* ≈ 1.448, v* ≈ 0.714, left rarefaction + right shock, shock speed
// ≈ 0.828 (Martí & Müller 2003, Table; also Lora-Clavijo et al. 2013).
func TestProblem1MartiMuller(t *testing.T) {
	sol, err := Solve(State{Rho: 10, V: 0, P: 13.33}, State{Rho: 1, V: 0, P: 1e-6}, 5.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.LeftWave != Rarefaction || sol.RightWave != Shock {
		t.Fatalf("wave structure = %v/%v, want rarefaction/shock", sol.LeftWave, sol.RightWave)
	}
	if math.Abs(sol.Pstar-1.448) > 0.01 {
		t.Errorf("p* = %v, want 1.448", sol.Pstar)
	}
	if math.Abs(sol.Vstar-0.714) > 0.005 {
		t.Errorf("v* = %v, want 0.714", sol.Vstar)
	}
	if math.Abs(sol.RightSpeed-0.828) > 0.005 {
		t.Errorf("shock speed = %v, want 0.828", sol.RightSpeed)
	}
	// Shocked density (published: ρ ≈ 5.0 behind the shock is for
	// different setup; check consistency instead: compression ratio > 1).
	if sol.RhoStarR <= 1 {
		t.Errorf("right star density %v not compressed", sol.RhoStarR)
	}
}

// Martí & Müller Problem 2 (relativistic blast wave): Γ = 5/3,
// L = (1, 0, 1000), R = (1, 0, 0.01). Published: p* ≈ 18.6, v* ≈ 0.960,
// shock speed ≈ 0.986, a thin dense shell behind the shock.
func TestProblem2BlastWave(t *testing.T) {
	sol, err := Solve(State{Rho: 1, V: 0, P: 1000}, State{Rho: 1, V: 0, P: 0.01}, 5.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.LeftWave != Rarefaction || sol.RightWave != Shock {
		t.Fatalf("wave structure = %v/%v", sol.LeftWave, sol.RightWave)
	}
	if math.Abs(sol.Pstar-18.6) > 0.2 {
		t.Errorf("p* = %v, want 18.6", sol.Pstar)
	}
	if math.Abs(sol.Vstar-0.960) > 0.002 {
		t.Errorf("v* = %v, want 0.960", sol.Vstar)
	}
	if math.Abs(sol.RightSpeed-0.986) > 0.002 {
		t.Errorf("shock speed = %v, want 0.986", sol.RightSpeed)
	}
}

// Symmetric double shock: two streams colliding head-on must give a
// symmetric fan with v* = 0 and two shocks.
func TestSymmetricCollision(t *testing.T) {
	sol, err := Solve(State{Rho: 1, V: 0.9, P: 1}, State{Rho: 1, V: -0.9, P: 1}, 5.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.LeftWave != Shock || sol.RightWave != Shock {
		t.Fatalf("wave structure = %v/%v, want shock/shock", sol.LeftWave, sol.RightWave)
	}
	if math.Abs(sol.Vstar) > 1e-8 {
		t.Errorf("v* = %v, want 0", sol.Vstar)
	}
	if sol.Pstar <= 1 {
		t.Errorf("p* = %v must exceed inflow pressure", sol.Pstar)
	}
	if math.Abs(sol.LeftSpeed+sol.RightSpeed) > 1e-8 {
		t.Errorf("shock speeds not symmetric: %v, %v", sol.LeftSpeed, sol.RightSpeed)
	}
	if math.Abs(sol.RhoStarL-sol.RhoStarR) > 1e-8 {
		t.Errorf("star densities not symmetric: %v, %v", sol.RhoStarL, sol.RhoStarR)
	}
}

// Symmetric double rarefaction: receding streams.
func TestSymmetricRarefactions(t *testing.T) {
	sol, err := Solve(State{Rho: 1, V: -0.3, P: 1}, State{Rho: 1, V: 0.3, P: 1}, 5.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.LeftWave != Rarefaction || sol.RightWave != Rarefaction {
		t.Fatalf("wave structure = %v/%v", sol.LeftWave, sol.RightWave)
	}
	if math.Abs(sol.Vstar) > 1e-8 {
		t.Errorf("v* = %v, want 0", sol.Vstar)
	}
	if sol.Pstar >= 1 {
		t.Errorf("p* = %v must be below inflow pressure", sol.Pstar)
	}
}

// Trivial Riemann problem: identical states must return that state
// everywhere.
func TestTrivialProblem(t *testing.T) {
	s := State{Rho: 2, V: 0.4, P: 3}
	sol, err := Solve(s, s, 5.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Pstar-3) > 1e-8 || math.Abs(sol.Vstar-0.4) > 1e-8 {
		t.Errorf("star state (%v, %v), want (3, 0.4)", sol.Pstar, sol.Vstar)
	}
	for _, xi := range []float64{-0.9, -0.1, 0.4, 0.8} {
		got := sol.Sample(xi)
		if math.Abs(got.Rho-2) > 1e-6 || math.Abs(got.P-3) > 1e-6 || math.Abs(got.V-0.4) > 1e-6 {
			t.Errorf("Sample(%v) = %+v", xi, got)
		}
	}
}

// Sampling sanity for Problem 1: monotone pressure through the left fan,
// plateau in the star region, exact states outside the waves.
func TestSampleProblem1Structure(t *testing.T) {
	l := State{Rho: 10, V: 0, P: 13.33}
	r := State{Rho: 1, V: 0, P: 1e-6}
	sol, err := Solve(l, r, 5.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	// Outside the fan.
	if got := sol.Sample(sol.LeftHead - 0.01); got != l {
		t.Errorf("left of fan: %+v", got)
	}
	if got := sol.Sample(sol.RightSpeed + 0.01); got != r {
		t.Errorf("right of shock: %+v", got)
	}
	// Inside the fan: pressure decreases monotonically with xi.
	prev := math.Inf(1)
	for xi := sol.LeftHead + 1e-6; xi < sol.LeftTail; xi += (sol.LeftTail - sol.LeftHead) / 50 {
		st := sol.Sample(xi)
		if st.P > prev+1e-10 {
			t.Fatalf("fan pressure not monotone at xi=%v: %v > %v", xi, st.P, prev)
		}
		if st.P < sol.Pstar-1e-8 || st.P > l.P+1e-8 {
			t.Fatalf("fan pressure %v outside [p*, pL]", st.P)
		}
		prev = st.P
	}
	// Fan endpoints match the adjacent states.
	head := sol.Sample(sol.LeftHead + 1e-9)
	if math.Abs(head.P-l.P)/l.P > 1e-3 {
		t.Errorf("fan head pressure %v, want %v", head.P, l.P)
	}
	tail := sol.Sample(sol.LeftTail - 1e-9)
	if math.Abs(tail.P-sol.Pstar)/sol.Pstar > 1e-3 {
		t.Errorf("fan tail pressure %v, want %v", tail.P, sol.Pstar)
	}
	// Star region on both sides of the contact.
	mid := sol.Sample(0.5 * (sol.LeftTail + sol.Vstar))
	if math.Abs(mid.P-sol.Pstar) > 1e-8 || math.Abs(mid.V-sol.Vstar) > 1e-8 {
		t.Errorf("left star sample %+v", mid)
	}
	if math.Abs(mid.Rho-sol.RhoStarL) > 1e-8 {
		t.Errorf("left star density %v, want %v", mid.Rho, sol.RhoStarL)
	}
	midR := sol.Sample(0.5 * (sol.Vstar + sol.RightSpeed))
	if math.Abs(midR.Rho-sol.RhoStarR) > 1e-8 {
		t.Errorf("right star density %v, want %v", midR.Rho, sol.RhoStarR)
	}
}

// The contact discontinuity must carry a density jump but continuous
// pressure and velocity.
func TestContactJumpConditions(t *testing.T) {
	sol, err := Solve(State{Rho: 10, V: 0, P: 13.33}, State{Rho: 1, V: 0, P: 1e-6}, 5.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.RhoStarL-sol.RhoStarR) < 1e-3 {
		t.Error("contact carries no density jump")
	}
}

// Wave ordering: every speed must be causal and properly ordered
// left-to-right.
func TestWaveOrdering(t *testing.T) {
	cases := []struct{ l, r State }{
		{State{10, 0, 13.33}, State{1, 0, 1e-6}},
		{State{1, 0, 1000}, State{1, 0, 0.01}},
		{State{1, 0.9, 1}, State{1, -0.9, 1}},
		{State{1, -0.3, 1}, State{1, 0.3, 1}},
		{State{5, 0.5, 10}, State{1, -0.5, 0.1}},
	}
	for _, c := range cases {
		sol, err := Solve(c.l, c.r, 5.0/3.0)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		var leftEdge, rightEdge float64
		if sol.LeftWave == Shock {
			leftEdge = sol.LeftSpeed
		} else {
			leftEdge = sol.LeftTail
			if sol.LeftHead > sol.LeftTail+1e-12 {
				t.Errorf("%+v: left fan inverted: head %v > tail %v", c, sol.LeftHead, sol.LeftTail)
			}
		}
		if sol.RightWave == Shock {
			rightEdge = sol.RightSpeed
		} else {
			rightEdge = sol.RightTail
			if sol.RightHead < sol.RightTail-1e-12 {
				t.Errorf("%+v: right fan inverted: head %v < tail %v", c, sol.RightHead, sol.RightTail)
			}
		}
		if !(leftEdge <= sol.Vstar+1e-10 && sol.Vstar <= rightEdge+1e-10) {
			t.Errorf("%+v: wave ordering broken: %v, %v, %v", c, leftEdge, sol.Vstar, rightEdge)
		}
		for _, v := range []float64{leftEdge, rightEdge, sol.Vstar} {
			if math.Abs(v) >= 1 {
				t.Errorf("%+v: acausal speed %v", c, v)
			}
		}
	}
}

// Property test over random admissible states: the star pressure must
// equalise the velocities behind both waves, waves must be ordered and
// causal, and sampling must be piecewise-consistent with the star state.
func TestRandomRiemannProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	solved := 0
	for trial := 0; trial < 500; trial++ {
		l := State{
			Rho: math.Exp(rng.Float64()*6 - 3),
			V:   1.6*rng.Float64() - 0.8,
			P:   math.Exp(rng.Float64()*6 - 3),
		}
		r := State{
			Rho: math.Exp(rng.Float64()*6 - 3),
			V:   1.6*rng.Float64() - 0.8,
			P:   math.Exp(rng.Float64()*6 - 3),
		}
		sol, err := Solve(l, r, 5.0/3.0)
		if err == ErrVacuum {
			continue // legitimately receding states
		}
		if err != nil {
			t.Fatalf("trial %d (%+v | %+v): %v", trial, l, r, err)
		}
		solved++
		if sol.Pstar <= 0 || math.Abs(sol.Vstar) >= 1 {
			t.Fatalf("trial %d: unphysical star (%v, %v)", trial, sol.Pstar, sol.Vstar)
		}
		// Velocity match behind the two waves.
		g := gas{5.0 / 3.0}
		vl, err1 := g.velocityBehind(l, sol.Pstar, -1)
		vr, err2 := g.velocityBehind(r, sol.Pstar, +1)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: star evaluation failed: %v %v", trial, err1, err2)
		}
		if math.Abs(vl-vr) > 1e-8 {
			t.Fatalf("trial %d: star velocities differ: %v vs %v", trial, vl, vr)
		}
		// Sampling immediately left/right of the contact gives the star
		// pressure on both sides.
		for _, eps := range []float64{-1e-9, 1e-9} {
			st := sol.Sample(sol.Vstar + eps)
			if math.Abs(st.P-sol.Pstar)/sol.Pstar > 1e-6 {
				t.Fatalf("trial %d: contact sample p=%v, want %v", trial, st.P, sol.Pstar)
			}
		}
		// Far field returns the inputs.
		if sol.Sample(-0.999999) != l || sol.Sample(0.999999) != r {
			t.Fatalf("trial %d: far field corrupted", trial)
		}
	}
	if solved < 400 {
		t.Errorf("only %d/500 problems solved (too many vacuums?)", solved)
	}
}

func TestVacuumDetection(t *testing.T) {
	// Violently receding streams produce vacuum.
	_, err := Solve(State{Rho: 1, V: -0.9999, P: 1e-8}, State{Rho: 1, V: 0.9999, P: 1e-8}, 5.0/3.0)
	if err == nil {
		t.Fatal("vacuum not detected")
	}
}

func TestInputValidation(t *testing.T) {
	good := State{Rho: 1, V: 0, P: 1}
	cases := []struct {
		l, r  State
		gamma float64
	}{
		{State{Rho: -1, V: 0, P: 1}, good, 5.0 / 3.0},
		{good, State{Rho: 1, V: 0, P: -1}, 5.0 / 3.0},
		{good, State{Rho: 1, V: 1.5, P: 1}, 5.0 / 3.0},
		{good, good, 1.0},
		{good, good, 3.0},
	}
	for _, c := range cases {
		if _, err := Solve(c.l, c.r, c.gamma); err == nil {
			t.Errorf("inputs %+v accepted", c)
		}
	}
}

func TestSampleProfile(t *testing.T) {
	sol, err := Solve(State{Rho: 10, V: 0, P: 13.33}, State{Rho: 1, V: 0, P: 1e-6}, 5.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	// The profile at t = 0.4 of a discontinuity at x0 = 0.5, sampled at
	// ξ = (x − x0)/t: the discontinuity spreads.
	xs := []float64{0.1, 0.5, 0.9}
	prof := make([]State, len(xs))
	for i, x := range xs {
		prof[i] = sol.Sample((x - 0.5) / 0.4)
	}
	if prof[0] != sol.L {
		t.Errorf("x=0.1 should still be undisturbed: %+v", prof[0])
	}
	if prof[1].V <= 0 {
		t.Errorf("x=0.5 should be moving right: %+v", prof[1])
	}
}

// Galilean-like check: boosting both states by the same small velocity
// shifts v* by approximately that velocity for weak waves (exactly true in
// the Newtonian limit).
func TestWeakWaveBoostCovariance(t *testing.T) {
	l := State{Rho: 1, V: 0, P: 1.0}
	r := State{Rho: 1, V: 0, P: 0.99}
	sol0, err := Solve(l, r, 5.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	const dv = 1e-3
	lb := State{Rho: 1, V: dv, P: 1.0}
	rb := State{Rho: 1, V: dv, P: 0.99}
	solB, err := Solve(lb, rb, 5.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((solB.Vstar-sol0.Vstar)-dv) > 1e-6 {
		t.Errorf("boosted v* shift = %v, want %v", solB.Vstar-sol0.Vstar, dv)
	}
	if math.Abs(solB.Pstar-sol0.Pstar)/sol0.Pstar > 1e-4 {
		t.Errorf("boost changed p*: %v vs %v", solB.Pstar, sol0.Pstar)
	}
}
