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
//
// The inversion is a row kernel (recoverRow): the prologue and the Newton
// loop run inline over a contiguous range of cells, so neighbouring cells'
// division and square-root chains overlap in the processor. The algorithm
// and each cell's evaluation order are those of a one-cell call; only the
// derivative is formed lazily, after the convergence test it cannot affect.
package c2p

import (
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
// Solver may be shared by the workers recovering tile chunks in parallel.
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

// trial evaluates the algebraic reconstruction of the conserved state
// (D, E = τ + D, S²) at pressure p: ρ, ε and v². It returns ok=false when p
// is inadmissible for the state (E + p ≤ 0, v² ≥ VMax², ρ ≤ 0 or ε NaN —
// the arithmetic runs regardless, NaN and all, and only ok says whether to
// believe it). It is the one copy of these operations, small enough that
// the Newton loop, the bisection and the final reconstruction all inline
// it, so a pressure reconstructs to the same bits wherever it is tried.
func trial(d, en, s2, vmax2, p float64) (rho, eps, v2 float64, ok bool) {
	ep := en + p
	v2 = s2 / (ep * ep)
	w := 1 / math.Sqrt(1-v2)
	rho = d / w
	h := ep / (d * w)
	eps = h - 1 - p/rho
	return rho, eps, v2, !(ep <= 0) && !(v2 >= vmax2) && rho > 0 && !math.IsNaN(eps)
}

// atmosphere returns the floor state.
func (s *Solver) atmosphere() state.Prim {
	return state.Prim{Rho: s.Opts.RhoFloor, P: s.Opts.PFloor}
}

// failure says why an inversion failed; the zero value is success. The row
// kernel carries the code, and only Recover — the one caller that returns an
// error — formats a message from it, so a failing cell (routine, and
// repaired, under fail-safe flagging) costs no allocation.
type failure uint8

const (
	recovered     failure = iota
	failHopeless          // D or E non-positive or NaN
	failNoBracket         // no admissible pressure has a positive residual
	failUnbounded         // the residual stays positive however high p goes
	failRoot              // the bisected pressure is itself inadmissible
)

// idealGamma returns the adiabatic index when the solver's EOS is a Γ-law
// gas, else 0 (the sentinel the row kernel branches on).
func (s *Solver) idealGamma() float64 {
	if g, ok := s.EOS.(eos.IdealGas); ok {
		return g.GammaAd
	}
	return 0
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

	why  failure // of the cell at FirstIdx
	badP float64 // the pressure its failRoot was rejected at
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
	var st statDelta
	res := s.recoverRow(cons, prim, lo, hi, mask, reset, s.idealGamma(), &st)
	s.Stat.flush(&st)
	return res
}

// pressureFloor returns the lower end of the admissible pressure bracket.
// Causality demands E + p > |S|; the max already clamps that bound onto
// the pressure floor, so no further floor check is needed (for admissible
// Γ-law states the causality term is in fact always negative — see the
// regression test TestCausalityBoundBracket). The builtin max inlines where
// math.Max is a call, and differs from it only on an (±Inf, NaN) pair,
// which a finite floor rules out.
func pressureFloor(pFloor, sAbs, en float64) float64 {
	return max(pFloor, (sAbs-en)*(1+1e-10))
}

// recoverRow is the recovery kernel: the admissibility prologue and the
// Newton iteration run inline on locals for each cell of the row, so that
// nothing but the slab loads and stores separates one cell's
// div → sqrt → div → div chain from the next cell's and the processor can
// overlap them. Per cell the operations, operands and order are those of a
// one-cell call — a row is bitwise its cells recovered one by one. A cell
// Newton converges on inside the floors (nearly all of them) is written
// straight to the slabs; every other one goes through settle.
//
// gamma > 0 selects the Γ-law residual, which mirrors eos.IdealGas
// operation for operation so the root is bitwise independent of the
// dispatch path; otherwise Pressure and SoundSpeed2 are interface calls.
// The derivative f'(p) ≈ v²c_s² − 1 is formed only once the residual test
// has failed: the evaluation that converges never needs it.
func (s *Solver) recoverRow(cons, prim *state.Fields, lo, hi int, mask []uint8, reset bool, gamma float64, st *statDelta) RangeResult {
	res := RangeResult{FirstIdx: -1}
	u, w := &cons.Comp, &prim.Comp
	D, Sx, Sy, Sz, Tau := u[state.ID][lo:hi], u[state.ISx][lo:hi], u[state.ISy][lo:hi], u[state.ISz][lo:hi], u[state.ITau][lo:hi]
	Rho, Vx, Vy, Vz, P := w[state.IRho][lo:hi], w[state.IVx][lo:hi], w[state.IVy][lo:hi], w[state.IVz][lo:hi], w[state.IP][lo:hi]

	e := s.EOS
	gm1, gog := gamma-1, gamma/(gamma-1)
	tol, maxIter := s.Opts.Tol, s.Opts.MaxIter
	rhoFloor, pFloor, vmax2 := s.Opts.RhoFloor, s.Opts.PFloor, s.Opts.VMax*s.Opts.VMax
	atm := s.atmosphere()
	iters := int64(0) // every evaluation counts, the inadmissible one included

	for i, d := range D {
		sx, sy, sz, tau := Sx[i], Sy[i], Sz[i], Tau[i]
		en := tau + d
		p, converged := P[i], false

		// Immediately hopeless states: non-positive D or E (the negated
		// comparisons send NaN the same way).
		hopeless := !(d > 0) || !(en > 0) || math.IsNaN(d) || math.IsNaN(en)
		if !hopeless {
			s2 := sx*sx + sy*sy + sz*sz
			pMin := pressureFloor(pFloor, math.Sqrt(s2), en)
			if !(p > pMin) || math.IsNaN(p) {
				// Ideal-gas-flavoured initial estimate: p ≈ (Γ̂−1)(E − D)
				// with Γ̂ = 5/3, clipped into the bracket.
				p = max(pMin*1.000001, (2.0/3.0)*(en-d))
				if !(p > 0) {
					p = pMin * 1.000001
				}
			}

			// Newton iteration with the monotone derivative approximation.
			// Convergence requires both a small step and a small residual:
			// the step alone can shrink spuriously when the iterate is
			// pinned against pMin.
			rho := 0.0
			for it := 0; it < maxIter; it++ {
				iters++
				var eps, v2 float64
				var ok bool
				if rho, eps, v2, ok = trial(d, en, s2, vmax2, p); !ok {
					break
				}
				var pe float64
				if gamma > 0 {
					pe = gm1 * rho * eps
				} else {
					pe = e.Pressure(rho, eps)
				}
				fv := pe - p
				if math.Abs(fv) <= tol*max(p, pFloor) {
					converged = true
					break
				}
				cs2 := 0.0
				if pe > 0 && gamma > 0 {
					h := 1 + gog*pe/rho
					cs2 = gamma * pe / (rho * h)
				} else if pe > 0 {
					cs2 = e.SoundSpeed2(rho, pe)
				}
				df := v2*cs2 - 1
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

			// The converged evaluation passed v² < VMax², so the velocity
			// cap cannot bind; with ρ and p inside the floors too the cell
			// is done, its velocities from one 1/(E+p).
			if converged && !(rho < rhoFloor) && !(p < pFloor) {
				inv := 1 / (en + p)
				Rho[i], Vx[i], Vy[i], Vz[i], P[i] = rho, sx*inv, sy*inv, sz*inv, p
				continue
			}
		}

		// The rare exits: bisection, floors, failure.
		c := state.Cons{D: d, Sx: sx, Sy: sy, Sz: sz, Tau: tau}
		var out state.Prim
		why, badP := failHopeless, 0.0
		if !hopeless {
			out, why, badP = s.settle(c, p, converged, gamma, st)
		}
		if why != recovered {
			st.failures++
			if res.Failures == 0 {
				res.FirstIdx, res.FirstCons, res.why, res.badP = lo+i, c, why, badP
			}
			res.Failures++
			if mask != nil {
				mask[lo+i] = 1
			}
			if reset {
				// Resync the conserved state with the atmosphere so the next
				// step starts from a consistent pair.
				cons.SetCons(lo+i, atm.ToCons(s.EOS))
			}
			out = atm
		}
		prim.SetPrim(lo+i, out)
	}
	st.calls += int64(len(D))
	st.iters += iters
	return res
}

// settle finishes a cell the row kernel could not write directly: p is the
// last Newton iterate for conserved state c. Unless Newton converged on
// it, the root is found by bisection; either way the state is reconstructed
// whole — for a converged p the very operations of the kernel's last
// evaluation — and the velocity cap and the floors applied. A failRoot
// comes with the pressure it rejected.
func (s *Solver) settle(c state.Cons, p float64, converged bool, gamma float64, st *statDelta) (state.Prim, failure, float64) {
	opts := &s.Opts
	en, s2, vmax2 := c.Tau+c.D, c.SSq(), opts.VMax*opts.VMax
	if !converged {
		pMin := pressureFloor(opts.PFloor, math.Sqrt(s2), en)
		// Bisection fallback. For Γ-law gases f is monotone decreasing
		// (one root), but steep hybrid/piecewise cold curves can make f
		// non-monotone: negative near pMin (clipped thermal part),
		// positive in a band, negative again above the physical root. The
		// fallback therefore (1) locates a point with f > 0, (2) expands
		// upward until f < 0 again, and (3) bisects that bracket, which
		// always contains the physical (largest) root.
		st.bisections++
		f := func(p float64) (float64, bool) {
			rho, eps, _, ok := trial(c.D, en, s2, vmax2, p)
			if !ok {
				return 0, false
			}
			if gamma > 0 {
				return (gamma-1)*rho*eps - p, true
			}
			return s.EOS.Pressure(rho, eps) - p, true
		}
		lo := pMin * (1 + 1e-14)

		// (1) A positive-residual point: try pMin, the last Newton
		// iterate and the ideal-gas estimate, then scan geometrically.
		pPos, havePos := 0.0, false
		for _, cand := range []float64{lo, p, (2.0 / 3.0) * (en - c.D)} {
			if cand < lo {
				continue
			}
			if fv, ok := f(cand); ok && fv > 0 {
				pPos, havePos = cand, true
				break
			}
		}
		if !havePos {
			for scan := lo * 2; scan < lo*1e30; scan *= 1.7 {
				if fv, ok := f(scan); ok && fv > 0 {
					pPos, havePos = scan, true
					break
				}
			}
		}

		// Distinguish why no positive residual can exist: when pMin is
		// just the pressure floor the state is genuinely cold and
		// clamping to the floor is correct; when pMin is the causality
		// bound |S|−E the state admits no pressure at all.
		if !havePos {
			fLo, okLo := f(lo)
			if causalityBound := pMin > opts.PFloor; !(okLo && fLo <= 0 && !causalityBound) {
				return state.Prim{}, failNoBracket, 0
			}
			p = lo
		} else {
			// (2) Expand above pPos until the residual turns negative.
			lo = pPos
			hi := math.Max(2*pPos, 1.0)
			okBracket := false
			for k := 0; k < 200; k++ {
				if fv, ok := f(hi); !ok || fv < 0 {
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
				return state.Prim{}, failUnbounded, 0
			}
			// (3) Bisect [lo, hi].
			for k := 0; k < 200; k++ {
				mid := 0.5 * (lo + hi)
				fv, ok := f(mid)
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

	rho, _, v2, ok := trial(c.D, en, s2, vmax2, p)
	if !ok {
		return state.Prim{}, failRoot, p
	}
	inv := 1 / (en + p)
	prim := state.Prim{Rho: rho, Vx: c.Sx * inv, Vy: c.Sy * inv, Vz: c.Sz * inv, P: p}

	// Velocity cap.
	if v2 > vmax2 {
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
	return prim, recovered, 0
}
