package riemann

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rhsc/internal/eos"
	"rhsc/internal/state"
)

var gamma53 = eos.NewIdealGas(5.0 / 3.0)

// All returns every solver.
func All() []Solver { return []Solver{LLF{}, HLL{}, HLLC{}} }

func randomPrim(rng *rand.Rand) state.Prim {
	v := 0.99 * rng.Float64()
	th := rng.Float64() * math.Pi
	ph := rng.Float64() * 2 * math.Pi
	return state.Prim{
		Rho: math.Exp(rng.Float64()*6 - 3),
		Vx:  v * math.Sin(th) * math.Cos(ph),
		Vy:  v * math.Sin(th) * math.Sin(ph),
		Vz:  v * math.Cos(th),
		P:   math.Exp(rng.Float64()*6 - 3),
	}
}

func consClose(a, b state.Cons, tol float64) bool {
	rel := func(x, y float64) float64 {
		return math.Abs(x-y) / (1 + math.Max(math.Abs(x), math.Abs(y)))
	}
	return rel(a.D, b.D) < tol && rel(a.Sx, b.Sx) < tol && rel(a.Sy, b.Sy) < tol &&
		rel(a.Sz, b.Sz) < tol && rel(a.Tau, b.Tau) < tol
}

// Consistency: F(u, u) must equal the exact physical flux for every solver
// and direction.
func TestConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range All() {
		for trial := 0; trial < 500; trial++ {
			p := randomPrim(rng)
			c := p.ToCons(gamma53)
			for _, d := range []state.Direction{state.X, state.Y, state.Z} {
				want := stateFlux(p, c, d)
				got := s.Flux(gamma53, p, p, d)
				if !consClose(got, want, 1e-10) {
					t.Fatalf("%s dir %v: F(u,u) = %+v, want %+v (p=%+v)",
						s.Name(), d, got, want, p)
				}
			}
		}
	}
}

// Supersonic upwinding: when both states move right faster than every wave,
// the flux must be exactly the left flux (information cannot travel
// upstream).
func TestSupersonicUpwinding(t *testing.T) {
	pl := state.Prim{Rho: 1, Vx: 0.99, P: 1e-3}
	pr := state.Prim{Rho: 2, Vx: 0.99, P: 2e-3}
	fl := stateFlux(pl, pl.ToCons(gamma53), state.X)
	for _, s := range []Solver{HLL{}, HLLC{}} {
		got := s.Flux(gamma53, pl, pr, state.X)
		if !consClose(got, fl, 1e-12) {
			t.Errorf("%s: supersonic flux %+v, want left flux %+v", s.Name(), got, fl)
		}
	}
	// Mirror: both moving left.
	plm := state.Prim{Rho: 1, Vx: -0.99, P: 1e-3}
	prm := state.Prim{Rho: 2, Vx: -0.99, P: 2e-3}
	fr := stateFlux(prm, prm.ToCons(gamma53), state.X)
	for _, s := range []Solver{HLL{}, HLLC{}} {
		got := s.Flux(gamma53, plm, prm, state.X)
		if !consClose(got, fr, 1e-12) {
			t.Errorf("%s: supersonic flux %+v, want right flux %+v", s.Name(), got, fr)
		}
	}
}

// Mirror symmetry: reflecting the states through the face (swap L/R and
// negate normal velocities) must negate the D and tau fluxes and preserve
// the normal momentum flux.
func TestMirrorSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range All() {
		for trial := 0; trial < 300; trial++ {
			pl := randomPrim(rng)
			pr := randomPrim(rng)
			f := s.Flux(gamma53, pl, pr, state.X)
			// Reflected problem.
			rl := state.Prim{Rho: pr.Rho, Vx: -pr.Vx, Vy: pr.Vy, Vz: pr.Vz, P: pr.P}
			rr := state.Prim{Rho: pl.Rho, Vx: -pl.Vx, Vy: pl.Vy, Vz: pl.Vz, P: pl.P}
			g := s.Flux(gamma53, rl, rr, state.X)
			if math.Abs(g.D+f.D) > 1e-9*(1+math.Abs(f.D)) {
				t.Fatalf("%s: D flux not antisymmetric: %v vs %v", s.Name(), g.D, f.D)
			}
			if math.Abs(g.Sx-f.Sx) > 1e-9*(1+math.Abs(f.Sx)) {
				t.Fatalf("%s: Sx flux not symmetric: %v vs %v", s.Name(), g.Sx, f.Sx)
			}
			if math.Abs(g.Tau+f.Tau) > 1e-9*(1+math.Abs(f.Tau)) {
				t.Fatalf("%s: tau flux not antisymmetric: %v vs %v", s.Name(), g.Tau, f.Tau)
			}
		}
	}
}

// A static contact discontinuity (equal p, zero normal velocity, density
// jump) must produce zero flux through the face with HLLC — the defining
// property that distinguishes it from HLL.
func TestHLLCResolvesStaticContact(t *testing.T) {
	pl := state.Prim{Rho: 1.0, P: 0.5}
	pr := state.Prim{Rho: 10.0, P: 0.5}
	f := (HLLC{}).Flux(gamma53, pl, pr, state.X)
	if math.Abs(f.D) > 1e-12 || math.Abs(f.Tau) > 1e-12 {
		t.Errorf("HLLC static contact flux nonzero: D=%v tau=%v", f.D, f.Tau)
	}
	if math.Abs(f.Sx-0.5) > 1e-12 {
		t.Errorf("HLLC static contact momentum flux %v, want p=0.5", f.Sx)
	}
	// HLL, by contrast, diffuses the contact: nonzero D flux.
	g := (HLL{}).Flux(gamma53, pl, pr, state.X)
	if math.Abs(g.D) < 1e-6 {
		t.Errorf("HLL unexpectedly resolves the contact exactly: D flux %v", g.D)
	}
}

// A moving contact (equal p and v_x != 0, density jump) must be advected
// exactly by HLLC: the flux must equal the upwind exact flux.
func TestHLLCResolvesMovingContact(t *testing.T) {
	for _, vx := range []float64{0.3, -0.3, 0.9, -0.9} {
		pl := state.Prim{Rho: 1.0, Vx: vx, P: 0.5}
		pr := state.Prim{Rho: 8.0, Vx: vx, P: 0.5}
		up := pl
		if vx < 0 {
			up = pr
		}
		want := stateFlux(up, up.ToCons(gamma53), state.X)
		got := (HLLC{}).Flux(gamma53, pl, pr, state.X)
		if !consClose(got, want, 1e-9) {
			t.Errorf("vx=%v: HLLC contact flux %+v, want %+v", vx, got, want)
		}
	}
}

// Shear waves: HLLC must advect transverse velocity jumps exactly when
// p and v_x match (relativistic shear layers couple through the Lorentz
// factor, but at v_x = 0 the tangential momentum flux must vanish).
func TestHLLCShearAtRest(t *testing.T) {
	pl := state.Prim{Rho: 1, Vy: 0.5, P: 1}
	pr := state.Prim{Rho: 1, Vy: -0.5, P: 1}
	f := (HLLC{}).Flux(gamma53, pl, pr, state.X)
	if math.Abs(f.Sy) > 1e-12 {
		t.Errorf("HLLC shear flux Sy = %v, want 0", f.Sy)
	}
	if math.Abs(f.D) > 1e-12 {
		t.Errorf("HLLC shear flux D = %v, want 0", f.D)
	}
}

// Dissipation ordering on a generic jump: LLF must be at least as
// dissipative as HLL on the density flux for a symmetric Sod-like state
// (more smearing = larger |F_D| toward the mean).
func TestDissipationOrdering(t *testing.T) {
	pl := state.Prim{Rho: 10, P: 13.3}
	pr := state.Prim{Rho: 1, P: 1e-1}
	// All three should produce finite, causal fluxes.
	for _, s := range All() {
		f := s.Flux(gamma53, pl, pr, state.X)
		for _, v := range []float64{f.D, f.Sx, f.Sy, f.Sz, f.Tau} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite flux %+v", s.Name(), f)
			}
		}
	}
	// For symmetric (rest-frame) states HLL degenerates to LLF exactly.
	fllf := (LLF{}).Flux(gamma53, pl, pr, state.X)
	fhll := (HLL{}).Flux(gamma53, pl, pr, state.X)
	if math.Abs(fllf.D-fhll.D) > 1e-12 {
		t.Errorf("rest-frame HLL %v != LLF %v", fhll.D, fllf.D)
	}
	// With asymmetric wave speeds (moving states) HLL is strictly less
	// dissipative: its D flux sits closer to the upwind value.
	plm := state.Prim{Rho: 10, Vx: 0.3, P: 13.3}
	prm := state.Prim{Rho: 1, Vx: 0.3, P: 1e-1}
	fUp := stateFlux(plm, plm.ToCons(gamma53), state.X)
	dLLF := math.Abs((LLF{}).Flux(gamma53, plm, prm, state.X).D - fUp.D)
	dHLL := math.Abs((HLL{}).Flux(gamma53, plm, prm, state.X).D - fUp.D)
	if dHLL >= dLLF {
		t.Errorf("HLL (%v) not closer to upwind flux than LLF (%v)", dHLL, dLLF)
	}
}

// The HLLC flux must lie "between" fully-upwinded limits: evaluate at a
// sonic-ish state and ensure it transitions continuously as v crosses the
// sound speed. Discontinuities in flux vs. input cause carbuncle-like
// artefacts.
func TestHLLCContinuityAcrossSonicPoint(t *testing.T) {
	prev := math.NaN()
	for v := -0.9; v <= 0.9; v += 0.002 {
		pl := state.Prim{Rho: 1, Vx: v, P: 1}
		pr := state.Prim{Rho: 1.1, Vx: v, P: 1.05}
		f := (HLLC{}).Flux(gamma53, pl, pr, state.X)
		if !math.IsNaN(prev) {
			// dF/dv ~ rho W^3 reaches ~13 near |v|=0.9, so a smooth flux
			// changes by up to ~0.03 per dv=0.002 step; a branch-switch bug
			// would jump by O(0.1−1).
			if math.Abs(f.D-prev) > 0.06 {
				t.Fatalf("HLLC D flux jumps at v=%v: %v -> %v", v, prev, f.D)
			}
		}
		prev = f.D
	}
}

// Degenerate HLLC quadratic: cold, nearly pressureless flow makes the
// energy flux coefficient vanish; the solver must fall back to the linear
// root without NaNs.
func TestHLLCDegenerateQuadratic(t *testing.T) {
	pl := state.Prim{Rho: 1, Vx: 1e-14, P: 1e-12}
	pr := state.Prim{Rho: 1, Vx: -1e-14, P: 1e-12}
	f := (HLLC{}).Flux(gamma53, pl, pr, state.X)
	for _, v := range []float64{f.D, f.Sx, f.Tau} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("degenerate HLLC flux %+v", f)
		}
	}
}

// Property check via testing/quick: F(u, u) equals the exact flux for
// randomly generated admissible states, all solvers, all directions.
func TestQuickConsistency(t *testing.T) {
	prop := func(lr, lp, a, b float64) bool {
		rho := math.Exp(math.Mod(lr, 5))
		p := math.Exp(math.Mod(lp, 5))
		// Map (a, b) onto a subluminal velocity pair.
		vx := 0.99 * math.Tanh(a)
		vy := 0.99 * math.Tanh(b) * math.Sqrt(1-vx*vx)
		w := state.Prim{Rho: rho, Vx: vx, Vy: vy, P: p}
		if !w.IsPhysical() {
			return true
		}
		c := w.ToCons(gamma53)
		for _, s := range All() {
			for _, d := range []state.Direction{state.X, state.Y, state.Z} {
				want := stateFlux(w, c, d)
				got := s.Flux(gamma53, w, w, d)
				if !consClose(got, want, 1e-9) {
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

func TestByName(t *testing.T) {
	for _, name := range []string{"llf", "hll", "hllc"} {
		s, err := ByName(name)
		if err != nil || s.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := ByName("roe"); err == nil {
		t.Error("unknown solver accepted")
	}
}

// Strong relativistic blast states (pressure ratio 1e5, as in the standard
// blast-wave problem) must yield finite fluxes from all solvers.
func TestExtremePressureRatio(t *testing.T) {
	pl := state.Prim{Rho: 1, P: 1000}
	pr := state.Prim{Rho: 1, P: 1e-2}
	for _, s := range All() {
		f := s.Flux(gamma53, pl, pr, state.X)
		if math.IsNaN(f.D) || math.IsNaN(f.Sx) || math.IsNaN(f.Tau) {
			t.Errorf("%s: NaN flux on blast states", s.Name())
		}
	}
}

// Transverse direction fluxes: a flow purely along y must produce zero
// x-flux of density for symmetric states with vx=0.
func TestTransverseFlowZeroNormalFlux(t *testing.T) {
	p := state.Prim{Rho: 1, Vy: 0.9, P: 1}
	for _, s := range All() {
		f := s.Flux(gamma53, p, p, state.X)
		if math.Abs(f.D) > 1e-14 {
			t.Errorf("%s: normal D flux %v for transverse flow", s.Name(), f.D)
		}
		if math.Abs(f.Sx-p.P) > 1e-12 {
			t.Errorf("%s: Sx flux %v, want p", s.Name(), f.Sx)
		}
	}
}
