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
// solvers moved onto evaluated face states — state.Prim.ToCons, stateFlux
// and waveSpeeds through the EOS interface, 40-byte structs throughout.
// The production code must reproduce them bit for bit.

// stateFlux returns the flux vector along direction d for a cell whose primitive
// and conserved states are (p, c):
//
//	F(D)   = D v_d
//	F(S_i) = S_i v_d + p δ_{id}
//	F(τ)   = S_d − D v_d
func stateFlux(p state.Prim, c state.Cons, d state.Direction) state.Cons {
	vd := p.V(d)
	f := state.Cons{
		D:   c.D * vd,
		Sx:  c.Sx * vd,
		Sy:  c.Sy * vd,
		Sz:  c.Sz * vd,
		Tau: c.S(d) - c.D*vd,
	}
	switch d {
	case state.X:
		f.Sx += p.P
	case state.Y:
		f.Sy += p.P
	default:
		f.Sz += p.P
	}
	return f
}

// waveSpeeds returns the smallest and largest characteristic speeds (λ−, λ+)
// of the SRHD system along direction d:
//
//	λ± = [ v_d (1−c_s²) ± c_s sqrt( (1−v²)(1 − v²c_s² − v_d²(1−c_s²)) ) ]
//	     / (1 − v² c_s²)
//
// Both are guaranteed to lie in (−1, 1) for admissible states.
func waveSpeeds(e eos.EOS, p state.Prim, d state.Direction) (lm, lp float64) {
	return state.SignalSpeeds(e.SoundSpeed2(p.Rho, p.P), p.VSq(), p.V(d))
}

// maxAbsSpeed returns max(|λ−|, |λ+|) along direction d — the CFL speed.
// The builtin max inlines (math.Max is a call) and differs from it only on
// an (±Inf, NaN) pair, which finite wave speeds never form.
func maxAbsSpeed(e eos.EOS, p state.Prim, d state.Direction) float64 {
	lm, lp := waveSpeeds(e, p, d)
	return max(math.Abs(lm), math.Abs(lp))
}

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
	fl := stateFlux(pl, ul, d)
	fr := stateFlux(pr, ur, d)
	al := maxAbsSpeed(e, pl, d)
	ar := maxAbsSpeed(e, pr, d)
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
	lmL, lpL := waveSpeeds(e, pl, d)
	lmR, lpR := waveSpeeds(e, pr, d)
	return math.Min(lmL, lmR), math.Max(lpL, lpR)
}

func refHLL(e eos.EOS, pl, pr state.Prim, d state.Direction) state.Cons {
	sl, sr := refOuterSpeeds(e, pl, pr, d)
	ul := pl.ToCons(e)
	ur := pr.ToCons(e)
	switch {
	case sl >= 0:
		return stateFlux(pl, ul, d)
	case sr <= 0:
		return stateFlux(pr, ur, d)
	}
	fl := stateFlux(pl, ul, d)
	fr := stateFlux(pr, ur, d)
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
		return stateFlux(pl, ul, d)
	case sr <= 0:
		br.upwindR++
		return stateFlux(pr, ur, d)
	}
	fl := stateFlux(pl, ul, d)
	fr := stateFlux(pr, ur, d)

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

// The per-face kernel as it stood before the row kernels replaced it, kept
// verbatim: faceRef.Eval evaluates one side of one face, and llfFace,
// hllFace and hllcFace combine two. EvalRow and Kind.FluxRow must
// reproduce it bit for bit on every face of a row.

// faceRef is the evaluated state on one side of a face — everything a
// combiner needs: the conserved variables, their fluxes along the sweep
// direction, the normal velocity, the pressure and the characteristic
// speeds.
type faceRef struct {
	D, Sx, Sy, Sz, Tau      float64 // conserved
	FD, FSx, FSy, FSz, FTau float64 // fluxes along the sweep direction
	Vd, P                   float64 // normal velocity, pressure
	Lm, Lp                  float64 // characteristic speeds λ−, λ+
}

// Eval fills f from the primitive state q, its specific enthalpy h and
// squared sound speed cs2. The arithmetic is state.Prim.ToCons, stateFlux
// and waveSpeeds operation for operation with h and cs2 hoisted out,
// so a sweep that inlines its equation of state reproduces the
// interface-dispatched results bitwise. It fills in place: returning the
// 112-byte struct by value puts a duffcopy on the per-face hot path.
func (f *faceRef) Eval(h, cs2 float64, q state.Prim, d state.Direction) {
	v2 := q.Vx*q.Vx + q.Vy*q.Vy + q.Vz*q.Vz
	w := 1 / math.Sqrt(1-v2)
	rhw2 := q.Rho * h * w * w
	f.D = q.Rho * w
	f.Sx = rhw2 * q.Vx
	f.Sy = rhw2 * q.Vy
	f.Sz = rhw2 * q.Vz
	f.Tau = rhw2 - q.P - f.D

	var vd, sd float64
	switch d {
	case state.X:
		vd, sd = q.Vx, f.Sx
	case state.Y:
		vd, sd = q.Vy, f.Sy
	default:
		vd, sd = q.Vz, f.Sz
	}
	f.Vd, f.P = vd, q.P
	f.FD = f.D * vd
	f.FSx = f.Sx * vd
	f.FSy = f.Sy * vd
	f.FSz = f.Sz * vd
	f.FTau = sd - f.D*vd
	switch d {
	case state.X:
		f.FSx += q.P
	case state.Y:
		f.FSy += q.P
	default:
		f.FSz += q.P
	}
	f.Lm, f.Lp = state.SignalSpeeds(cs2, v2, vd)
}

func llfFace(l, r *faceRef) (fd, fsx, fsy, fsz, ftau float64) {
	alpha := max(math.Abs(l.Lm), math.Abs(l.Lp), math.Abs(r.Lm), math.Abs(r.Lp))
	return 0.5 * (l.FD + r.FD - alpha*(r.D-l.D)),
		0.5 * (l.FSx + r.FSx - alpha*(r.Sx-l.Sx)),
		0.5 * (l.FSy + r.FSy - alpha*(r.Sy-l.Sy)),
		0.5 * (l.FSz + r.FSz - alpha*(r.Sz-l.Sz)),
		0.5 * (l.FTau + r.FTau - alpha*(r.Tau-l.Tau))
}

func hllFace(l, r *faceRef) (fd, fsx, fsy, fsz, ftau float64) {
	sl := min(l.Lm, r.Lm)
	sr := max(l.Lp, r.Lp)
	switch {
	case sl >= 0:
		return l.FD, l.FSx, l.FSy, l.FSz, l.FTau
	case sr <= 0:
		return r.FD, r.FSx, r.FSy, r.FSz, r.FTau
	}
	inv := 1 / (sr - sl)
	hll := func(flc, frc, ulc, urc float64) float64 {
		return (sr*flc - sl*frc + sl*sr*(urc-ulc)) * inv
	}
	return hll(l.FD, r.FD, l.D, r.D),
		hll(l.FSx, r.FSx, l.Sx, r.Sx),
		hll(l.FSy, r.FSy, l.Sy, r.Sy),
		hll(l.FSz, r.FSz, l.Sz, r.Sz),
		hll(l.FTau, r.FTau, l.Tau, r.Tau)
}

func hllcFace(l, r *faceRef, d state.Direction) (fd, fsx, fsy, fsz, ftau float64) {
	sl := min(l.Lm, r.Lm)
	sr := max(l.Lp, r.Lp)
	switch {
	case sl >= 0:
		return l.FD, l.FSx, l.FSy, l.FSz, l.FTau
	case sr <= 0:
		return r.FD, r.FSx, r.FSy, r.FSz, r.FTau
	}

	// HLL state and flux of the total energy E = τ + D and the normal
	// momentum m = S_d. F(E) = F(τ) + F(D) = S_d.
	inv := 1 / (sr - sl)
	hllU := func(ulc, urc, flc, frc float64) float64 {
		return (sr*urc - sl*ulc + flc - frc) * inv
	}
	hllF := func(flc, frc, ulc, urc float64) float64 {
		return (sr*flc - sl*frc + sl*sr*(urc-ulc)) * inv
	}
	eL := l.Tau + l.D
	eR := r.Tau + r.D
	var mL, mR, fmL, fmR float64
	switch d {
	case state.X:
		mL, mR, fmL, fmR = l.Sx, r.Sx, l.FSx, r.FSx
	case state.Y:
		mL, mR, fmL, fmR = l.Sy, r.Sy, l.FSy, r.FSy
	default:
		mL, mR, fmL, fmR = l.Sz, r.Sz, l.FSz, r.FSz
	}
	feL := l.FTau + l.FD // = S_d(L)
	feR := r.FTau + r.FD
	eH := hllU(eL, eR, feL, feR)
	mH := hllU(mL, mR, fmL, fmR)
	feH := hllF(feL, feR, eL, eR)
	fmH := hllF(fmL, fmR, mL, mR)

	// Contact speed: F_E λ*² − (E + F_m) λ* + m = 0, taking the root that
	// lies inside the fan (minus branch, M&B eq. 18).
	a := feH
	b := -(eH + fmH)
	c := mH
	var lstar float64
	if math.Abs(a) > 1e-12*(math.Abs(b)+math.Abs(c)) {
		disc := b*b - 4*a*c
		if disc < 0 {
			disc = 0
		}
		// Numerically stable quadratic: q = −(b + sign(b)·sqrt(disc))/2.
		q := -0.5 * (b + math.Copysign(math.Sqrt(disc), b))
		lstar = c / q
	} else {
		lstar = -c / b
	}
	// Guard against roundoff pushing λ* outside the fan.
	if lstar < sl {
		lstar = sl
	}
	if lstar > sr {
		lstar = sr
	}

	// Star-region pressure (M&B eq. 17).
	pstar := -feH*lstar + fmH

	// Rankine–Hugoniot jump across the outer wave S_K on the side
	// containing the face (λ* >= 0 → left star state); the flux is
	// F_K + S_K (U*_K − U_K).
	k, sk := r, sr
	if lstar >= 0 {
		k, sk = l, sl
	}
	vk := k.Vd
	ek := k.Tau + k.D
	invK := 1 / (sk - lstar)
	dstar := k.D * (sk - vk) * invK
	estar := (ek*(sk-vk) + pstar*lstar - k.P*vk) * invK
	// Normal momentum: m* = (m(S_K − v) + p* − p)/(S_K − λ*).
	// Transverse momenta advect: S_t* = S_t (S_K − v)/(S_K − λ*).
	adv := (sk - vk) * invK
	var sxs, sys, szs float64
	switch d {
	case state.X:
		sxs = (k.Sx*(sk-vk) + pstar - k.P) * invK
		sys = k.Sy * adv
		szs = k.Sz * adv
	case state.Y:
		sys = (k.Sy*(sk-vk) + pstar - k.P) * invK
		sxs = k.Sx * adv
		szs = k.Sz * adv
	default:
		szs = (k.Sz*(sk-vk) + pstar - k.P) * invK
		sxs = k.Sx * adv
		sys = k.Sy * adv
	}
	taustar := estar - dstar
	return k.FD + sk*(dstar-k.D),
		k.FSx + sk*(sxs-k.Sx),
		k.FSy + sk*(sys-k.Sy),
		k.FSz + sk*(szs-k.Sz),
		k.FTau + sk*(taustar-k.Tau)
}

// slabs lists f in Faces field order.
func (f *faceRef) slabs() [NSlab]float64 {
	return [NSlab]float64{f.D, f.Sx, f.Sy, f.Sz, f.Tau, f.FD, f.FSx, f.FSy, f.FSz, f.FTau,
		f.Vd, f.P, f.Lm, f.Lp}
}

// at lists face i of f in field order.
func (f *Faces) at(i int) [NSlab]float64 {
	return [NSlab]float64{f.D[i], f.Sx[i], f.Sy[i], f.Sz[i], f.Tau[i], f.FD[i], f.FSx[i],
		f.FSy[i], f.FSz[i], f.FTau[i], f.Vd[i], f.P[i], f.Lm[i], f.Lp[i]}
}

// rowSentinel marks slab and flux entries a row kernel must not write.
var rowSentinel = math.Float64frombits(0x7ff8dead0000beef)

func sentinelRow(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rowSentinel
	}
	return s
}

// The row kernels against the per-face reference: rows of face pairs from
// the facePair generator, which mix subsonic faces, both supersonic lanes,
// the λ* clamp and the degenerate quadratic; every solver, direction and
// closure (the Γ-law gas takes the inlined h and c_s², the others the
// interface pre-pass); odd lengths and sub-ranges with lo > 0. Faces
// outside [lo, hi) must be left untouched.
func TestRowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	closures := []eos.EOS{gamma53, eos.TaubMathews{}, eos.NewHybrid(0.1, 2, 5.0/3.0)}
	combine := map[Kind]func(l, r *faceRef, d state.Direction) [state.NComp]float64{
		KindLLF: func(l, r *faceRef, _ state.Direction) (o [state.NComp]float64) {
			o[0], o[1], o[2], o[3], o[4] = llfFace(l, r)
			return
		},
		KindHLL: func(l, r *faceRef, _ state.Direction) (o [state.NComp]float64) {
			o[0], o[1], o[2], o[3], o[4] = hllFace(l, r)
			return
		},
		KindHLLC: func(l, r *faceRef, d state.Direction) (o [state.NComp]float64) {
			o[0], o[1], o[2], o[3], o[4] = hllcFace(l, r, d)
			return
		},
	}
	spans := []struct{ n, lo, hi int }{{1, 0, 1}, {7, 0, 7}, {7, 2, 5}, {33, 1, 32}, {53, 3, 53}, {53, 52, 53}}
	var br hllcBranches
	for trial := 0; trial < 40; trial++ {
		for _, sp := range spans {
			var ql, qr [state.NComp][]float64
			for c := range ql {
				ql[c], qr[c] = make([]float64, sp.n), make([]float64, sp.n)
			}
			pairs := make([]facePair, sp.n)
			for f := range pairs {
				pairs[f] = facePair{}.Generate(rng, 0).Interface().(facePair)
				if rng.Intn(8) == 0 {
					pairs[f] = linearRootPair(rng)
				}
				for c, v := range [state.NComp]float64{pairs[f].L.Rho, pairs[f].L.Vx, pairs[f].L.Vy, pairs[f].L.Vz, pairs[f].L.P} {
					ql[c][f] = v
				}
				for c, v := range [state.NComp]float64{pairs[f].R.Rho, pairs[f].R.Vx, pairs[f].R.Vy, pairs[f].R.Vz, pairs[f].R.P} {
					qr[c][f] = v
				}
			}
			for _, e := range closures {
				for _, d := range []state.Direction{state.X, state.Y, state.Z} {
					l, r := NewFaces(sentinelRow(NSlab*sp.n), sp.n), NewFaces(sentinelRow(NSlab*sp.n), sp.n)
					EvalRow(&l, &ql, e, d, sp.lo, sp.hi)
					EvalRow(&r, &qr, e, d, sp.lo, sp.hi)
					refL, refR := make([]faceRef, sp.n), make([]faceRef, sp.n)
					for f := 0; f < sp.n; f++ {
						pl, pr := pairs[f].L, pairs[f].R
						refL[f].Eval(e.Enthalpy(pl.Rho, pl.P), e.SoundSpeed2(pl.Rho, pl.P), pl, d)
						refR[f].Eval(e.Enthalpy(pr.Rho, pr.P), e.SoundSpeed2(pr.Rho, pr.P), pr, d)
						wantL, wantR := refL[f].slabs(), refR[f].slabs()
						if f < sp.lo || f >= sp.hi {
							for k := range wantL {
								wantL[k], wantR[k] = rowSentinel, rowSentinel
							}
						}
						gotL, gotR := l.at(f), r.at(f)
						if !sameBits(gotL[:], wantL[:]) || !sameBits(gotR[:], wantR[:]) {
							t.Fatalf("%s dir %v span %+v face %d: EvalRow = %v | %v, reference %v | %v",
								e.Name(), d, sp, f, gotL, gotR, wantL, wantR)
						}
					}
					for _, k := range []Kind{KindLLF, KindHLL, KindHLLC} {
						var fx [state.NComp][]float64
						for c := range fx {
							fx[c] = sentinelRow(sp.n)
						}
						k.FluxRow(&l, &r, &fx, d, sp.lo, sp.hi)
						for f := 0; f < sp.n; f++ {
							want := [state.NComp]float64{rowSentinel, rowSentinel, rowSentinel, rowSentinel, rowSentinel}
							if f >= sp.lo && f < sp.hi {
								want = combine[k](&refL[f], &refR[f], d)
								if k == KindHLLC {
									refHLLC(e, pairs[f].L, pairs[f].R, d, &br)
								}
							}
							got := [state.NComp]float64{fx[0][f], fx[1][f], fx[2][f], fx[3][f], fx[4][f]}
							if !sameBits(got[:], want[:]) {
								t.Fatalf("kind %d %s dir %v span %+v face %d: FluxRow = %v, reference %v (L=%+v R=%+v)",
									k, e.Name(), d, sp, f, got, want, pairs[f].L, pairs[f].R)
							}
						}
					}
				}
			}
		}
	}
	if br.upwindL == 0 || br.upwindR == 0 || br.linearRoot == 0 || br.clamped == 0 ||
		br.starL == 0 || br.starR == 0 {
		t.Errorf("rows missed an HLLC branch: %+v", br)
	}
}

// linearRootPair returns two static Γ = 5/3 states with equal total
// energy E = ρ + 1.5p and a pressure jump: the HLL energy flux vanishes to
// roundoff while the HLL momentum does not, so the HLLC contact speed is
// the linear root −m/(E + F_m), whose sign picks the star state.
func linearRootPair(rng *rand.Rand) facePair {
	s := math.Exp(rng.Float64()*4 - 2)
	pl, pr := s, s*rng.Float64()
	fp := facePair{L: state.Prim{Rho: s, P: pl}, R: state.Prim{Rho: s + 1.5*(pl-pr), P: pr}}
	if rng.Intn(2) == 0 {
		fp.L, fp.R = fp.R, fp.L
	}
	return fp
}

// sameBits reports whether a and b hold the same bit patterns.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}
