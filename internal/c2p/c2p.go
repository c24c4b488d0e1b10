// Package c2p implements the conservative-to-primitive inversion of special
// relativistic hydrodynamics.
//
// Unlike Newtonian hydro, the map (D, S_i, τ) → (ρ, v_i, p) has no closed
// form: the solver performs a one-dimensional root find on the pressure.
// Given a pressure candidate p the remaining primitives follow
// algebraically:
//
//	E  = τ + D              (total energy density)
//	v² = S² / (E + p)²
//	W  = (1 − v²)^{−1/2}
//	ρ  = D / W
//	h  = (E + p) / (D W)
//	ε  = h − 1 − p/ρ
//
// and the residual is f(p) = p_EOS(ρ, ε) − p. The derivative is
// approximated by the standard expression f'(p) ≈ v² c_s² − 1 < 0, which
// makes Newton monotone for admissible states. If Newton stalls or leaves
// the admissible bracket, the solver falls back to bisection on
// [p_min, p_max], where p_min = max(floor, |S| − E) is the causality bound.
//
// The package also owns the robustness policy production HRSC codes need
// near vacuum: density and pressure floors ("atmosphere"), a velocity cap,
// and per-solver failure accounting.
package c2p

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"rhsc/internal/eos"
	"rhsc/internal/state"
)

// Options configures the inversion.
type Options struct {
	// Tol is the relative tolerance on the pressure root.
	Tol float64
	// MaxIter bounds the Newton iteration count before falling back.
	MaxIter int
	// RhoFloor and PFloor define the atmosphere state applied when the
	// recovered density or pressure drops below them (or when recovery
	// fails outright).
	RhoFloor float64
	PFloor   float64
	// VMax caps the recovered velocity magnitude (Lorentz-factor limiter);
	// production codes use 1 − 1e-10 or similar.
	VMax float64
}

// DefaultOptions returns the options used by the solver unless overridden.
func DefaultOptions() Options {
	return Options{
		Tol:      1e-12,
		MaxIter:  50,
		RhoFloor: 1e-13,
		PFloor:   1e-15,
		VMax:     1 - 1e-12,
	}
}

// Stats counts recovery events. All fields are updated atomically so one
// Solver may be shared across the strip-parallel RHS evaluation.
//
// Atomicity contract: each field is individually atomic, but the set of
// counters is not updated under a common lock, so a Snapshot taken while
// RecoverRange runs on other goroutines may observe intermediate mixes
// (e.g. a Calls increment whose NewtonIters increment has not landed
// yet). Counters are batched locally and flushed once per Recover or
// RecoverRange call — per-cell atomic traffic would dominate the hot loop
// — so a concurrent Snapshot may additionally lag by at most one
// in-flight range. Every individual count is exact once the concurrent
// recoveries have completed — there is a happens-before edge from each
// RecoverRange return to a subsequent Snapshot, so callers that quiesce
// first (as the solver does between stages) read exact totals. Snapshot
// never tears an individual counter.
type Stats struct {
	Calls       atomic.Int64 // total inversions attempted
	NewtonIters atomic.Int64 // total Newton iterations
	Bisections  atomic.Int64 // inversions that needed the bisection fallback
	FloorHits   atomic.Int64 // states clipped to the atmosphere floors
	Failures    atomic.Int64 // states reset wholesale to atmosphere
}

// statDelta accumulates recovery counters in plain integers; Stats.flush
// lands the batch with one atomic add per touched counter.
type statDelta struct {
	calls, iters, bisections, floorHits, failures int64
}

// flush adds the batched deltas to the shared counters.
func (s *Stats) flush(d *statDelta) {
	if d.calls != 0 {
		s.Calls.Add(d.calls)
	}
	if d.iters != 0 {
		s.NewtonIters.Add(d.iters)
	}
	if d.bisections != 0 {
		s.Bisections.Add(d.bisections)
	}
	if d.floorHits != 0 {
		s.FloorHits.Add(d.floorHits)
	}
	if d.failures != 0 {
		s.Failures.Add(d.failures)
	}
}

// Snapshot returns a plain-values copy of the counters.
func (s *Stats) Snapshot() (calls, iters, bisections, floorHits, failures int64) {
	return s.Calls.Load(), s.NewtonIters.Load(), s.Bisections.Load(),
		s.FloorHits.Load(), s.Failures.Load()
}

// Solver performs conservative→primitive inversions for one equation of
// state. It is safe for concurrent use.
type Solver struct {
	EOS  eos.EOS
	Opts Options
	Stat Stats
}

// NewSolver returns a Solver with default options.
func NewSolver(e eos.EOS) *Solver {
	return &Solver{EOS: e, Opts: DefaultOptions()}
}

// ErrUnphysical is wrapped by recovery errors for conserved states outside
// the physical domain (E+p ≤ |S| for every admissible p, negative D, …).
var ErrUnphysical = errors.New("c2p: unphysical conserved state")

// primsAt evaluates the algebraic primitive reconstruction at pressure p.
// It returns ok=false when p is inadmissible for this conserved state.
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

// atmosphere returns the floor state.
func (s *Solver) atmosphere() state.Prim {
	return state.Prim{Rho: s.Opts.RhoFloor, P: s.Opts.PFloor}
}

// residual evaluates f(p) = p_EOS(ρ(p), ε(p)) − p and the monotone
// derivative approximation f'(p) ≈ v²c_s² − 1 for one conserved state.
// When gamma > 0 the EOS is a Γ-law gas and the Pressure/SoundSpeed2
// calls are devirtualised, mirroring eos.IdealGas operation for operation
// so the root — and hence the recovered state — is bitwise independent of
// the dispatch path.
//
// Everything that depends on the conserved state alone (E, S², the Γ-law
// constants) is formed once in newResidual; eval is primsAt without the
// velocities, operation for operation, and keeps ρ and v² of its last
// admissible evaluation so a root Newton converged on needs no second
// reconstruction.
type residual struct {
	c     state.Cons
	en    float64 // E = τ + D
	s2    float64 // S²
	vmax2 float64
	e     eos.EOS
	gamma float64 // adiabatic index when e is a Γ-law gas; 0 otherwise
	gm1   float64 // Γ − 1
	gog   float64 // Γ/(Γ − 1)

	rho, v2 float64 // of the last evaluation that returned ok
}

func newResidual(c state.Cons, en, s2, vmax float64, e eos.EOS, gamma float64) residual {
	return residual{c: c, en: en, s2: s2, vmax2: vmax * vmax, e: e,
		gamma: gamma, gm1: gamma - 1, gog: gamma / (gamma - 1)}
}

func (r *residual) eval(p float64) (fv, df float64, ok bool) {
	ep := r.en + p
	if ep <= 0 {
		return 0, 0, false
	}
	v2 := r.s2 / (ep * ep)
	if v2 >= r.vmax2 {
		return 0, 0, false
	}
	w := 1 / math.Sqrt(1-v2)
	rho := r.c.D / w
	h := ep / (r.c.D * w)
	eps := h - 1 - p/rho
	if !(rho > 0) || math.IsNaN(eps) {
		return 0, 0, false
	}
	r.rho, r.v2 = rho, v2
	if r.gamma > 0 {
		pe := r.gm1 * rho * eps
		cs2 := 0.0
		if pe > 0 {
			h := 1 + r.gog*pe/rho
			cs2 = r.gamma * pe / (rho * h)
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

// idealGamma returns the adiabatic index when the solver's EOS is a Γ-law
// gas, else 0 (the sentinel residual.eval branches on).
func (s *Solver) idealGamma() float64 {
	if g, ok := s.EOS.(eos.IdealGas); ok {
		return g.GammaAd
	}
	return 0
}

// Recover inverts the conserved state c. The guess is a pressure estimate
// (typically last step's pressure); pass 0 to let the solver choose. The
// returned primitive always satisfies the floors; err is non-nil only when
// the state was unrecoverable and has been reset to atmosphere.
func (s *Solver) Recover(c state.Cons, guess float64) (state.Prim, error) {
	var st statDelta
	p, err := s.recover(c, guess, s.idealGamma(), &st)
	s.Stat.flush(&st)
	return p, err
}

// recover is Recover with the stats batched into st and the Γ-law
// devirtualisation hoisted (gamma as returned by idealGamma).
func (s *Solver) recover(c state.Cons, guess, gamma float64, st *statDelta) (state.Prim, error) {
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
	s2 := c.SSq()
	sAbs := math.Sqrt(s2)
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

	fr := newResidual(c, e, s2, opts.VMax, s.EOS, gamma)

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

	// The Newton root was just evaluated: its ρ and v² are in fr, and the
	// velocities follow from the same 1/(E+p) primsAt forms. A bisected or
	// floor-clamped p was not, and is reconstructed (and re-checked) whole.
	var prim state.Prim
	v2 := fr.v2
	if converged {
		inv := 1 / (e + p)
		prim = state.Prim{Rho: fr.rho, Vx: c.Sx * inv, Vy: c.Sy * inv, Vz: c.Sz * inv, P: p}
	} else {
		rho, vx, vy, vz, _, pv2, ok := primsAt(c, p, opts.VMax)
		if !ok {
			st.failures++
			return s.atmosphere(), fmt.Errorf("%w: inadmissible root p=%v", ErrUnphysical, p)
		}
		prim, v2 = state.Prim{Rho: rho, Vx: vx, Vy: vy, Vz: vz, P: p}, pv2
	}

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

// RecoverRange inverts cells [lo, hi) of cons into prim, using each cell's
// previous pressure in prim as the Newton guess. It returns the number of
// cells that had to be reset to atmosphere. Both Fields must have the same
// size; the call is safe to run concurrently on disjoint ranges.
func (s *Solver) RecoverRange(cons, prim *state.Fields, lo, hi int) int {
	return s.RecoverRangeEx(cons, prim, lo, hi, nil, true).Failures
}

// RangeResult reports the outcome of one RecoverRangeEx call.
type RangeResult struct {
	// Failures is the number of cells whose inversion failed.
	Failures int
	// FirstIdx is the flat index of the lowest failing cell, or -1.
	FirstIdx int
	// FirstCons is the conserved state of that cell as it was *before*
	// any atmosphere reset — the real failure, preserved for diagnostics.
	FirstCons state.Cons
}

// RecoverRangeEx is RecoverRange with two extra controls for the
// a posteriori fail-safe machinery:
//
//   - mask, when non-nil, gets mask[i] = 1 for every failing cell (cells
//     that recover are left untouched — callers own the clearing);
//   - reset = false leaves failing conserved cells untouched ("flagging
//     mode": the caller will repair them from pre-stage data), writing
//     only the atmosphere placeholder into prim; reset = true resyncs
//     them to the atmosphere, matching RecoverRange.
//
// The result carries the pre-reset conserved state of the first failing
// cell so validation errors can report what actually failed, not the
// atmosphere it was overwritten with.
func (s *Solver) RecoverRangeEx(cons, prim *state.Fields, lo, hi int, mask []uint8, reset bool) RangeResult {
	if cons.N != prim.N {
		panic("c2p: RecoverRange size mismatch")
	}
	if lo < 0 || hi > cons.N || lo > hi {
		panic(fmt.Sprintf("c2p: RecoverRange bad range [%d,%d) of %d", lo, hi, cons.N))
	}
	gamma := s.idealGamma()
	var st statDelta
	res := RangeResult{FirstIdx: -1}
	for i := lo; i < hi; i++ {
		c := cons.GetCons(i)
		guess := prim.Comp[state.IP][i]
		p, err := s.recover(c, guess, gamma, &st)
		if err != nil {
			if res.Failures == 0 {
				res.FirstIdx, res.FirstCons = i, c
			}
			res.Failures++
			if mask != nil {
				mask[i] = 1
			}
			if reset {
				// Resync the conserved state with the atmosphere so the next
				// step starts from a consistent pair.
				cons.SetCons(i, p.ToCons(s.EOS))
			}
		}
		prim.SetPrim(i, p)
	}
	s.Stat.flush(&st)
	return res
}
