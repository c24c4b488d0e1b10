package riemann

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rhsc/internal/eos"
	"rhsc/internal/state"
)

// Reference oracles: the scalar solver bodies as they stood before the
// solvers moved onto evaluated face states — state.Prim.ToCons, state.Flux
// and state.WaveSpeeds through the EOS interface, 40-byte structs
// throughout. The production code must reproduce them bit for bit.

func consSub(a, b state.Cons) state.Cons {
	return state.Cons{
		D: a.D - b.D, Sx: a.Sx - b.Sx, Sy: a.Sy - b.Sy, Sz: a.Sz - b.Sz,
		Tau: a.Tau - b.Tau,
	}
}

func consAXPY(a state.Cons, s float64, b state.Cons) state.Cons {
	return state.Cons{
		D: a.D + s*b.D, Sx: a.Sx + s*b.Sx, Sy: a.Sy + s*b.Sy,
		Sz: a.Sz + s*b.Sz, Tau: a.Tau + s*b.Tau,
	}
}

func refLLF(e eos.EOS, pl, pr state.Prim, d state.Direction) state.Cons {
	ul := pl.ToCons(e)
	ur := pr.ToCons(e)
	fl := state.Flux(pl, ul, d)
	fr := state.Flux(pr, ur, d)
	al := state.MaxAbsSpeed(e, pl, d)
	ar := state.MaxAbsSpeed(e, pr, d)
	alpha := math.Max(al, ar)
	du := consSub(ur, ul)
	return state.Cons{
		D:   0.5 * (fl.D + fr.D - alpha*du.D),
		Sx:  0.5 * (fl.Sx + fr.Sx - alpha*du.Sx),
		Sy:  0.5 * (fl.Sy + fr.Sy - alpha*du.Sy),
		Sz:  0.5 * (fl.Sz + fr.Sz - alpha*du.Sz),
		Tau: 0.5 * (fl.Tau + fr.Tau - alpha*du.Tau),
	}
}

func refOuterSpeeds(e eos.EOS, pl, pr state.Prim, d state.Direction) (sl, sr float64) {
	lmL, lpL := state.WaveSpeeds(e, pl, d)
	lmR, lpR := state.WaveSpeeds(e, pr, d)
	return math.Min(lmL, lmR), math.Max(lpL, lpR)
}

func refHLL(e eos.EOS, pl, pr state.Prim, d state.Direction) state.Cons {
	sl, sr := refOuterSpeeds(e, pl, pr, d)
	ul := pl.ToCons(e)
	ur := pr.ToCons(e)
	switch {
	case sl >= 0:
		return state.Flux(pl, ul, d)
	case sr <= 0:
		return state.Flux(pr, ur, d)
	}
	fl := state.Flux(pl, ul, d)
	fr := state.Flux(pr, ur, d)
	inv := 1 / (sr - sl)
	hll := func(flc, frc, ulc, urc float64) float64 {
		return (sr*flc - sl*frc + sl*sr*(urc-ulc)) * inv
	}
	return state.Cons{
		D:   hll(fl.D, fr.D, ul.D, ur.D),
		Sx:  hll(fl.Sx, fr.Sx, ul.Sx, ur.Sx),
		Sy:  hll(fl.Sy, fr.Sy, ul.Sy, ur.Sy),
		Sz:  hll(fl.Sz, fr.Sz, ul.Sz, ur.Sz),
		Tau: hll(fl.Tau, fr.Tau, ul.Tau, ur.Tau),
	}
}

// hllcBranches records which paths of the HLLC reference a face took, so
// the generators can be held to covering all of them.
type hllcBranches struct {
	upwindL, upwindR, linearRoot, clamped, starL, starR int
}

func refHLLC(e eos.EOS, pl, pr state.Prim, d state.Direction, br *hllcBranches) state.Cons {
	sl, sr := refOuterSpeeds(e, pl, pr, d)
	ul := pl.ToCons(e)
	ur := pr.ToCons(e)
	switch {
	case sl >= 0:
		br.upwindL++
		return state.Flux(pl, ul, d)
	case sr <= 0:
		br.upwindR++
		return state.Flux(pr, ur, d)
	}
	fl := state.Flux(pl, ul, d)
	fr := state.Flux(pr, ur, d)

	inv := 1 / (sr - sl)
	hllU := func(ulc, urc, flc, frc float64) float64 {
		return (sr*urc - sl*ulc + flc - frc) * inv
	}
	hllF := func(flc, frc, ulc, urc float64) float64 {
		return (sr*flc - sl*frc + sl*sr*(urc-ulc)) * inv
	}
	eL := ul.Tau + ul.D
	eR := ur.Tau + ur.D
	mL := ul.S(d)
	mR := ur.S(d)
	feL := fl.Tau + fl.D
	feR := fr.Tau + fr.D
	var fmL, fmR float64
	switch d {
	case state.X:
		fmL, fmR = fl.Sx, fr.Sx
	case state.Y:
		fmL, fmR = fl.Sy, fr.Sy
	default:
		fmL, fmR = fl.Sz, fr.Sz
	}
	eH := hllU(eL, eR, feL, feR)
	mH := hllU(mL, mR, fmL, fmR)
	feH := hllF(feL, feR, eL, eR)
	fmH := hllF(fmL, fmR, mL, mR)

	a := feH
	b := -(eH + fmH)
	c := mH
	var lstar float64
	if math.Abs(a) > 1e-12*(math.Abs(b)+math.Abs(c)) {
		disc := b*b - 4*a*c
		if disc < 0 {
			disc = 0
		}
		q := -0.5 * (b + math.Copysign(math.Sqrt(disc), b))
		lstar = c / q
	} else {
		br.linearRoot++
		lstar = -c / b
	}
	if lstar < sl {
		br.clamped++
		lstar = sl
	}
	if lstar > sr {
		br.clamped++
		lstar = sr
	}
	pstar := -feH*lstar + fmH
	if lstar >= 0 {
		br.starL++
		return refStarFlux(pl, ul, fl, sl, lstar, pstar, d)
	}
	br.starR++
	return refStarFlux(pr, ur, fr, sr, lstar, pstar, d)
}

func refStarFlux(p state.Prim, u state.Cons, f state.Cons, sk, lstar, pstar float64, d state.Direction) state.Cons {
	vk := p.V(d)
	ek := u.Tau + u.D
	inv := 1 / (sk - lstar)
	dstar := u.D * (sk - vk) * inv
	estar := (ek*(sk-vk) + pstar*lstar - p.P*vk) * inv
	adv := (sk - vk) * inv
	var sxs, sys, szs float64
	switch d {
	case state.X:
		sxs = (u.Sx*(sk-vk) + pstar - p.P) * inv
		sys = u.Sy * adv
		szs = u.Sz * adv
	case state.Y:
		sys = (u.Sy*(sk-vk) + pstar - p.P) * inv
		sxs = u.Sx * adv
		szs = u.Sz * adv
	default:
		szs = (u.Sz*(sk-vk) + pstar - p.P) * inv
		sxs = u.Sx * adv
		sys = u.Sy * adv
	}
	ustar := state.Cons{D: dstar, Sx: sxs, Sy: sys, Sz: szs, Tau: estar - dstar}
	return consAXPY(f, sk, consSub(ustar, u))
}

// facePair is a left/right face state drawn from the regimes the solvers
// branch on.
type facePair struct{ L, R state.Prim }

// Generate implements quick.Generator.
func (facePair) Generate(rng *rand.Rand, _ int) reflect.Value {
	var fp facePair
	switch rng.Intn(7) {
	case 0: // supersonic to the right along a random axis: S_L >= 0
		fp.L, fp.R = boosted(rng, 0.97), boosted(rng, 0.97)
	case 1: // supersonic to the left: S_R <= 0
		fp.L, fp.R = boosted(rng, -0.97), boosted(rng, -0.97)
	case 2: // cold, nearly pressureless and nearly at rest: F_E ≈ 0, the
		// HLLC quadratic degenerates to its linear root
		v := 1e-14 * rng.Float64()
		p := math.Exp(-28 - 4*rng.Float64())
		fp.L = state.Prim{Rho: 1, Vx: v, Vy: v, Vz: v, P: p}
		fp.R = state.Prim{Rho: 1, Vx: -v, Vy: -v, Vz: -v, P: p}
	case 3: // pressureless slab ploughing into a vanishingly light gas:
		// its sound waves and the contact ride the slab to within
		// roundoff, so λ* lands on either side of the fan edge and clamps
		v := 0.1 + 0.8*rng.Float64()
		tiny := 1e-40 * (1 + rng.Float64())
		fp.L = state.Prim{Rho: 1, Vx: v, Vy: 0.3 * v * rng.Float64(), Vz: 0.3 * v * rng.Float64(), P: tiny}
		fp.R = state.Prim{Rho: tiny, P: 0.01 * tiny}
		if rng.Intn(2) == 0 {
			fp.L, fp.R = fp.R, fp.L
			fp.R.Vx, fp.R.Vy, fp.R.Vz = -fp.R.Vx, -fp.R.Vy, -fp.R.Vz
		}
	case 4: // equal states, half of them in pure transverse shear
		fp.L = randomPrim(rng)
		fp.R = fp.L
		if rng.Intn(2) == 0 {
			fp.L.Vx, fp.R.Vx = 0, 0
			fp.R.Vy, fp.R.Vz = -fp.L.Vy, -fp.L.Vz
		}
	case 5: // strong blast: pressure ratio up to 1e7
		fp.L = state.Prim{Rho: 1, P: math.Exp(rng.Float64() * 8)}
		fp.R = state.Prim{Rho: math.Exp(rng.Float64()*4 - 2), P: math.Exp(-rng.Float64() * 8)}
	default:
		fp.L, fp.R = randomPrim(rng), randomPrim(rng)
	}
	return reflect.ValueOf(fp)
}

// boosted returns a random cold state moving at about speed v along the
// (1, 1, 1) diagonal, fast enough to outrun its own sound waves in every
// coordinate direction.
func boosted(rng *rand.Rand, v float64) state.Prim {
	c := v / math.Sqrt(3) * (0.97 + 0.03*rng.Float64())
	return state.Prim{
		Rho: math.Exp(rng.Float64()*4 - 2), Vx: c, Vy: c, Vz: c,
		P: math.Exp(rng.Float64()*2 - 8),
	}
}

// The solvers on evaluated face states must reproduce the scalar
// references bit for bit: 3 solvers × 3 directions × 3 equations of state,
// through both the Solver.Flux wrapper and Kind.Flux on hand-built faces,
// over every branch of every solver.
func TestSolversMatchReference(t *testing.T) {
	var br hllcBranches
	refs := map[Kind]func(eos.EOS, state.Prim, state.Prim, state.Direction) state.Cons{
		KindLLF: refLLF,
		KindHLL: refHLL,
		KindHLLC: func(e eos.EOS, pl, pr state.Prim, d state.Direction) state.Cons {
			return refHLLC(e, pl, pr, d, &br)
		},
	}
	closures := []eos.EOS{gamma53, eos.TaubMathews{}, eos.NewHybrid(0.1, 2, 5.0/3.0)}
	bits := func(c state.Cons) [5]uint64 {
		return [5]uint64{math.Float64bits(c.D), math.Float64bits(c.Sx), math.Float64bits(c.Sy),
			math.Float64bits(c.Sz), math.Float64bits(c.Tau)}
	}
	prop := func(fp facePair) bool {
		for _, e := range closures {
			for _, s := range All() {
				for _, d := range []state.Direction{state.X, state.Y, state.Z} {
					want := refs[s.Kind()](e, fp.L, fp.R, d)
					if got := s.Flux(e, fp.L, fp.R, d); bits(got) != bits(want) {
						t.Errorf("%s/%s dir %v: Flux = %+v, reference %+v (L=%+v R=%+v)",
							s.Name(), e.Name(), d, got, want, fp.L, fp.R)
						return false
					}
					var l, r Face
					l.Eval(e.Enthalpy(fp.L.Rho, fp.L.P), e.SoundSpeed2(fp.L.Rho, fp.L.P), fp.L, d)
					r.Eval(e.Enthalpy(fp.R.Rho, fp.R.P), e.SoundSpeed2(fp.R.Rho, fp.R.P), fp.R, d)
					var got state.Cons
					got.D, got.Sx, got.Sy, got.Sz, got.Tau = s.Kind().Flux(&l, &r, d)
					if bits(got) != bits(want) {
						t.Errorf("%s/%s dir %v: Kind.Flux = %+v, reference %+v", s.Name(), e.Name(), d, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
	if br.upwindL == 0 || br.upwindR == 0 || br.linearRoot == 0 || br.clamped == 0 ||
		br.starL == 0 || br.starR == 0 {
		t.Errorf("generators missed an HLLC branch: %+v", br)
	}
}
