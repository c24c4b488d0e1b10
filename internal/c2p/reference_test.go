package c2p

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rhsc/internal/eos"
	"rhsc/internal/state"
)

// The inversion as it stood before the trial-pressure evaluation was
// deduplicated, kept verbatim as the reference recover is pinned against:
// refResidual.eval reconstructs through primsAt on every call, and
// referenceRecover reconstructs the converged root a second time. primsAt
// moved here, verbatim, when the row kernel's trial replaced it, so the
// reference shares no arithmetic with the code it judges.

func primsAt(c state.Cons, p float64, vmax float64) (rho, vx, vy, vz, eps, v2 float64, ok bool) {
	e := c.Tau + c.D
	ep := e + p
	s2 := c.SSq()
	if ep <= 0 {
		return 0, 0, 0, 0, 0, 0, false
	}
	v2 = s2 / (ep * ep)
	if v2 >= vmax*vmax {
		return 0, 0, 0, 0, 0, 0, false
	}
	w := 1 / math.Sqrt(1-v2)
	rho = c.D / w
	h := ep / (c.D * w)
	eps = h - 1 - p/rho
	inv := 1 / ep
	vx, vy, vz = c.Sx*inv, c.Sy*inv, c.Sz*inv
	return rho, vx, vy, vz, eps, v2, rho > 0 && !math.IsNaN(eps)
}

type refResidual struct {
	c     state.Cons
	vmax  float64
	e     eos.EOS
	gamma float64 // adiabatic index when e is a Γ-law gas; 0 otherwise
}

func (r *refResidual) eval(p float64) (fv, df float64, ok bool) {
	rho, _, _, _, eps, v2, ok := primsAt(r.c, p, r.vmax)
	if !ok {
		return 0, 0, false
	}
	if gamma := r.gamma; gamma > 0 {
		pe := (gamma - 1) * rho * eps
		cs2 := 0.0
		if pe > 0 {
			h := 1 + gamma/(gamma-1)*pe/rho
			cs2 = gamma * pe / (rho * h)
		}
		return pe - p, v2*cs2 - 1, true
	}
	pe := r.e.Pressure(rho, eps)
	cs2 := 0.0
	if pe > 0 {
		cs2 = r.e.SoundSpeed2(rho, pe)
	}
	return pe - p, v2*cs2 - 1, true
}

func (s *Solver) referenceRecover(c state.Cons, guess, gamma float64, st *statDelta) (state.Prim, error) {
	st.calls++
	opts := &s.Opts

	// Immediately hopeless states: non-positive D or E.
	e := c.Tau + c.D
	if !(c.D > 0) || !(e > 0) || math.IsNaN(c.D) || math.IsNaN(e) {
		st.failures++
		return s.atmosphere(), fmt.Errorf("%w: D=%v E=%v", ErrUnphysical, c.D, e)
	}

	// Admissible pressure bracket. Causality demands E + p > |S|; the
	// outer Max already clamps the bound onto the pressure floor, so no
	// further floor check is needed (for admissible Γ-law states the
	// causality term is in fact always negative — see the regression test
	// TestCausalityBoundBracket).
	sAbs := math.Sqrt(c.SSq())
	pMin := math.Max(opts.PFloor, (sAbs-e)*(1+1e-10))

	p := guess
	if !(p > pMin) || math.IsNaN(p) {
		// Ideal-gas-flavoured initial estimate: p ≈ (Γ̂−1)(E − D) with Γ̂ = 5/3,
		// clipped into the bracket.
		p = math.Max(pMin*1.000001, (2.0/3.0)*(e-c.D))
		if !(p > 0) {
			p = pMin * 1.000001
		}
	}

	fr := refResidual{c: c, vmax: opts.VMax, e: s.EOS, gamma: gamma}

	// Newton iteration with the monotone derivative approximation.
	// Convergence requires both a small step and a small residual: the step
	// alone can shrink spuriously when the iterate is pinned against pMin.
	converged := false
	for it := 0; it < opts.MaxIter; it++ {
		fv, df, ok := fr.eval(p)
		st.iters++
		if !ok {
			break
		}
		if math.Abs(fv) <= opts.Tol*math.Max(p, opts.PFloor) {
			converged = true
			break
		}
		if df >= 0 { // should not happen for causal EOS; bail to bisection
			break
		}
		dp := -fv / df
		pNew := p + dp
		if pNew <= pMin {
			pNew = 0.5 * (p + pMin)
		}
		p = pNew
	}

	if !converged {
		// Bisection fallback. For Γ-law gases f is monotone decreasing
		// (one root), but steep hybrid/piecewise cold curves can make f
		// non-monotone: negative near pMin (clipped thermal part),
		// positive in a band, negative again above the physical root. The
		// fallback therefore (1) locates a point with f > 0, (2) expands
		// upward until f < 0 again, and (3) bisects that bracket, which
		// always contains the physical (largest) root.
		st.bisections++
		lo := pMin * (1 + 1e-14)

		// (1) A positive-residual point: try pMin, the last Newton
		// iterate and the ideal-gas estimate, then scan geometrically.
		pPos, havePos := 0.0, false
		for _, cand := range []float64{lo, p, (2.0 / 3.0) * (e - c.D)} {
			if cand < lo {
				continue
			}
			if fv, _, ok := fr.eval(cand); ok && fv > 0 {
				pPos, havePos = cand, true
				break
			}
		}
		if !havePos {
			for scan := lo * 2; scan < lo*1e30; scan *= 1.7 {
				if fv, _, ok := fr.eval(scan); ok && fv > 0 {
					pPos, havePos = scan, true
					break
				}
			}
		}

		// Distinguish why no positive residual can exist: when pMin is
		// just the pressure floor the state is genuinely cold and
		// clamping to the floor is correct; when pMin is the causality
		// bound |S|−E the state admits no pressure at all.
		causalityBound := (sAbs-e)*(1+1e-10) > opts.PFloor
		if !havePos {
			fLo, _, okLo := fr.eval(lo)
			if okLo && fLo <= 0 && !causalityBound {
				p = lo
			} else {
				st.failures++
				return s.atmosphere(), fmt.Errorf("%w: no pressure bracket (D=%.3e S=%.3e tau=%.3e)",
					ErrUnphysical, c.D, sAbs, c.Tau)
			}
		} else {
			// (2) Expand above pPos until the residual turns negative.
			lo = pPos
			hi := math.Max(2*pPos, 1.0)
			okBracket := false
			for k := 0; k < 200; k++ {
				if fv, _, ok := fr.eval(hi); !ok || fv < 0 {
					okBracket = true
					break
				}
				lo = hi // residual still positive: the root is above
				hi *= 4
				if math.IsInf(hi, 0) {
					break
				}
			}
			if !okBracket {
				st.failures++
				return s.atmosphere(), fmt.Errorf("%w: unbounded pressure residual (D=%.3e)",
					ErrUnphysical, c.D)
			}
			// (3) Bisect [lo, hi].
			for k := 0; k < 200; k++ {
				mid := 0.5 * (lo + hi)
				fv, _, ok := fr.eval(mid)
				if !ok || fv < 0 {
					hi = mid
				} else {
					lo = mid
				}
				if hi-lo <= opts.Tol*hi {
					break
				}
			}
			p = 0.5 * (lo + hi)
		}
	}

	rho, vx, vy, vz, _, v2, ok := primsAt(c, p, opts.VMax)
	if !ok {
		st.failures++
		return s.atmosphere(), fmt.Errorf("%w: inadmissible root p=%v", ErrUnphysical, p)
	}

	prim := state.Prim{Rho: rho, Vx: vx, Vy: vy, Vz: vz, P: p}

	// Velocity cap.
	if v2 > opts.VMax*opts.VMax {
		scale := opts.VMax / math.Sqrt(v2)
		prim.Vx *= scale
		prim.Vy *= scale
		prim.Vz *= scale
		st.floorHits++
	}
	// Floors.
	if prim.Rho < opts.RhoFloor {
		prim.Rho = opts.RhoFloor
		st.floorHits++
	}
	if prim.P < opts.PFloor {
		prim.P = opts.PFloor
		st.floorHits++
	}
	return prim, nil
}

// sameRecover runs both inversions on one input and reports the first
// difference: primitives by bit pattern, error by presence and text, and
// every counter the call batched.
func sameRecover(s *Solver, c state.Cons, guess float64) (statDelta, error) {
	gamma := s.idealGamma()
	var got, want statDelta
	pg, eg := s.recover(c, guess, gamma, &got)
	pw, ew := s.referenceRecover(c, guess, gamma, &want)
	bits := func(p state.Prim) [5]uint64 {
		return [5]uint64{math.Float64bits(p.Rho), math.Float64bits(p.Vx), math.Float64bits(p.Vy),
			math.Float64bits(p.Vz), math.Float64bits(p.P)}
	}
	switch {
	case bits(pg) != bits(pw):
		return got, fmt.Errorf("primitives %+v, reference %+v", pg, pw)
	case (eg == nil) != (ew == nil) || eg != nil && eg.Error() != ew.Error():
		return got, fmt.Errorf("error %v, reference %v", eg, ew)
	case got != want:
		return got, fmt.Errorf("stats %+v, reference %+v", got, want)
	}
	return got, nil
}

// TestRecoverMatchesReference pins recover to the inversion it replaced:
// the same root, primitives, error and Stats deltas, bit for bit, on a
// fixed table that reaches every exit of the routine and on random states
// for the Γ-law fast path and an interface-dispatched EOS.
func TestRecoverMatchesReference(t *testing.T) {
	elevated := DefaultOptions()
	elevated.PFloor = 1e-3
	dilute := DefaultOptions()
	dilute.RhoFloor, dilute.PFloor = 1e-6, 1e-8
	noNewton := DefaultOptions()
	noNewton.MaxIter = 0
	hybrid := eos.NewHybrid(0.3, 2, 5.0/3.0)
	blast := state.Prim{Rho: 1, Vx: 0.9, Vy: -0.3, Vz: 0.1, P: 1000}

	table := []struct {
		name  string
		eos   eos.EOS
		opts  Options
		c     state.Cons
		guess float64
		// reached checks that the row exercises the exit it is named for.
		reached func(d statDelta) bool
	}{
		{"first evaluation converges", gamma53, DefaultOptions(),
			state.Prim{Rho: 1, P: 2.5}.ToCons(gamma53), 2.5,
			func(d statDelta) bool { return d.iters == 1 && d.bisections == 0 }},
		{"many Newton iterations", gamma53, DefaultOptions(), blast.ToCons(gamma53), 1e-9,
			func(d statDelta) bool { return d.iters >= 5 && d.bisections == 0 }},
		{"default guess", gamma53, DefaultOptions(), blast.ToCons(gamma53), 0,
			func(d statDelta) bool { return d.iters >= 2 && d.bisections == 0 }},
		{"density and pressure floors", gamma53, dilute,
			state.Prim{Rho: 1e-9, P: 1e-12}.ToCons(gamma53), 0,
			func(d statDelta) bool { return d.floorHits > 0 && d.failures == 0 }},
		{"trial pressure above the velocity cap", gamma53, DefaultOptions(),
			state.Prim{Rho: 1e-3, Vx: math.Sqrt(1 - 1e-4), P: 10}.ToCons(gamma53), 1e-14,
			func(d statDelta) bool { return d.failures == 0 }},
		{"bisection fallback, cold clamp", gamma53, elevated, newtonDefeatingCons(), 0,
			func(d statDelta) bool { return d.bisections == 1 && d.failures == 0 }},
		{"bisection fallback, bracketed root", gamma53, noNewton, blast.ToCons(gamma53), 0,
			func(d statDelta) bool { return d.bisections == 1 && d.failures == 0 }},
		{"non-positive D", gamma53, DefaultOptions(), state.Cons{D: -1, Tau: 2}, 0,
			func(d statDelta) bool { return d.failures == 1 && d.iters == 0 }},
		{"NaN energy", gamma53, DefaultOptions(), state.Cons{D: 1, Tau: math.NaN()}, 0,
			func(d statDelta) bool { return d.failures == 1 }},
		{"superluminal momentum", gamma53, DefaultOptions(), state.Cons{D: 1, Sx: 50, Tau: 1}, 0,
			func(d statDelta) bool { return d.failures == 1 && d.bisections == 1 }},
		{"interface-dispatched EOS", hybrid, DefaultOptions(),
			state.Prim{Rho: 1, Vx: 0.5, P: 3}.ToCons(hybrid), 0,
			func(d statDelta) bool { return d.iters >= 2 && d.failures == 0 }},
	}
	for _, row := range table {
		s := &Solver{EOS: row.eos, Opts: row.opts}
		d, err := sameRecover(s, row.c, row.guess)
		if err != nil {
			t.Errorf("%s: %v", row.name, err)
		}
		if !row.reached(d) {
			t.Errorf("%s: row no longer reaches its exit (stats %+v)", row.name, d)
		}
	}

	// Random admissible states, perturbed off their exact conserved values
	// and recovered from guesses a stepping solver would pass — the exact
	// pressure, a stale one, none — plus raw garbage that only has to fail
	// alike.
	for _, e := range []eos.EOS{gamma53, eos.TaubMathews{}} {
		s := NewSolver(e)
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			p0 := randomPrim(rng, 0.999)
			c := p0.ToCons(e)
			c.Tau *= 1 + 1e-3*rng.NormFloat64()
			garbage := state.Cons{D: rng.NormFloat64(), Sx: rng.NormFloat64(),
				Sy: rng.NormFloat64(), Sz: rng.NormFloat64(), Tau: rng.NormFloat64()}
			for _, in := range []struct {
				c     state.Cons
				guess float64
			}{{c, p0.P}, {c, p0.P * math.Exp(rng.NormFloat64())}, {c, 0}, {garbage, rng.Float64()}} {
				if _, err := sameRecover(s, in.c, in.guess); err != nil {
					t.Errorf("%s, %+v guess %v: %v", e.Name(), in.c, in.guess, err)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
			t.Error(err)
		}
	}
}
