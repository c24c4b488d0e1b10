// Package resilience layers fault tolerance over the solver stack: a
// guarded stepper that validates every update and retries violations
// with a halved step and a dissipative first-order fallback, plus
// deterministic fault injectors to exercise the machinery.
//
// Fault model (see docs/RESILIENCE.md):
//
//   - Numerical faults — NaN/Inf states, loss of D/tau positivity, c2p
//     non-convergence behind strong shocks. Handled here: Guard snapshots
//     the state before each step, validates after (per RK stage via
//     core.Config.StrictChecks, whose last stage scans the final state,
//     and whole-state via CheckState after a post-step injection), and on
//     violation restores the snapshot and retries with dt/2; from the
//     second retry it also drops to piecewise-constant reconstruction +
//     HLL (the most dissipative, most robust method in the tree) and
//     restores the high-order scheme once a retry commits. The retry
//     budget bounds the work; exhaustion surfaces a typed *StepFailure
//     instead of a panic.
//
//   - Rank faults — a distributed-AMR rank dying mid-run. Handled in
//     internal/damr via cluster.Kill/FTRecv and buddy checkpoints.
//
//   - Device faults — a modelled accelerator erroring mid-sweep. Handled
//     in internal/hetero via plan-time re-execution with backoff.
//
// Determinism: a guarded run with no injected or organic violations is
// bit-identical to an unguarded run (validation only reads the state);
// with violations, the retry sequence is a pure function of the state,
// so guarded runs are reproducible run-to-run.
package resilience

import (
	"errors"
	"fmt"

	"rhsc/internal/core"
	"rhsc/internal/metrics"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
)

// The retry budget. maxRetries bounds the retries per step before the
// guard gives up (dt can shrink 16-fold); from retry firstOrderAfter on
// the fallback scheme (PCM + HLL) replaces the configured method, so the
// first retry only halves dt, preserving accuracy for transients.
const (
	maxRetries      = 4
	firstOrderAfter = 2
)

// StepFailure reports a step whose retry budget is exhausted. The
// guard's solver state is restored to the pre-step snapshot, so the
// caller can checkpoint, report, or abandon cleanly.
type StepFailure struct {
	T       float64 // solution time of the failed step
	Dt      float64 // originally requested step
	Retries int     // retries consumed
	Last    error   // violation seen on the final attempt
}

// Error implements the error interface.
func (e *StepFailure) Error() string {
	return fmt.Sprintf("resilience: step at t=%v (dt=%v) failed after %d retries: %v",
		e.T, e.Dt, e.Retries, e.Last)
}

// Unwrap exposes the final violation for errors.Is/As.
func (e *StepFailure) Unwrap() error { return e.Last }

// Guard wraps a core.Solver with snapshot/validate/retry stepping. Use
// from one goroutine; create with NewGuard. Do not copy.
type Guard struct {
	S *core.Solver
	// Inject, when non-nil, deterministically corrupts the state after
	// chosen steps (see Injector) to exercise the recovery path.
	Inject *Injector
	// Stats counts injections, retries and fallbacks; share it across
	// guards (e.g. one per AMR block) for aggregate accounting.
	Stats *metrics.FaultCounters

	uSnap, wSnap []float64
	steps        int
	own          metrics.FaultCounters // backing store when Stats is nil
}

// NewGuard wraps s. It enables per-stage strict validation on the
// solver (core.Config.StrictChecks), under which any failed c2p
// inversion violates the stage. When the solver runs the fail-safe
// pipeline (core.Config.FailSafe), a stage the local repair cannot or
// should not handle (core.Config.FailSafeMaxFrac) surfaces as a
// *core.StateError, which this guard's retry path treats like any other
// violation (restore, halve dt, eventually the global first-order
// fallback) — with the fail-safe disabled for the remaining attempts of
// that step, so the demotion really is global.
func NewGuard(s *core.Solver) *Guard {
	s.Cfg.StrictChecks = true
	g := &Guard{S: s}
	g.Stats = &g.own
	return g
}

// Steps returns the number of committed (successful) steps.
func (g *Guard) Steps() int { return g.steps }

// SetSteps overrides the committed-step counter. The job server uses it
// when resuming a preempted job from a checkpoint: the counter indexes
// Injector schedules (Injector.AtStep is an absolute committed-step
// index), so a resumed guard must continue counting where the parked
// run stopped for its fault schedule to stay aligned across preemption.
func (g *Guard) SetSteps(n int) { g.steps = n }

// Step advances by dt with validation and bounded retry, returning the
// dt actually committed (dt, or a halved refinement of it). On
// *StepFailure the state is the pre-step snapshot; on success the usual
// solver invariant (W consistent with U) holds.
func (g *Guard) Step(dt float64) (float64, error) {
	s := g.S
	g.uSnap = append(g.uSnap[:0], s.G.U.Raw()...)
	g.wSnap = append(g.wSnap[:0], s.G.W.Raw()...)
	t0 := s.Time()
	hiRec, hiRS := s.Method()
	fallback := false
	fsWas := s.Cfg.FailSafe
	tr0, rp0 := s.St.Troubled.Load(), s.St.Repaired.Load()
	defer func() { s.Cfg.FailSafe = fsWas }()

	cur := dt
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			copy(s.G.U.Raw(), g.uSnap)
			copy(s.G.W.Raw(), g.wSnap)
			s.SetTime(t0)
			// The raw W restore bypasses recovery, so any CFL reduction
			// cached by the failed attempt's final recovery is stale.
			s.InvalidateCFL()
			if attempt > maxRetries {
				if fallback {
					if err := s.SetMethod(hiRec, hiRS); err != nil {
						return 0, err
					}
				}
				return 0, &StepFailure{T: t0, Dt: dt, Retries: maxRetries, Last: lastErr}
			}
			g.Stats.Retries.Add(1)
			cur /= 2
			if attempt >= firstOrderAfter && !fallback {
				if err := s.SetMethod(recon.PCM{}, riemann.HLL{}); err != nil {
					return 0, err
				}
				fallback = true
			}
			if fallback {
				g.Stats.Fallbacks.Add(1)
			}
		}
		// In-stage injection lands through the solver's FaultHook so the
		// fail-safe pipeline sees the corruption before validation; any
		// caller-installed hook is preserved around the attempt.
		var injected bool
		hooked := false
		var prevHook func(int, *state.Fields)
		if inj := g.Inject; inj != nil && inj.InStage && inj.eligible(g.steps) {
			prevHook = s.Cfg.FaultHook
			hooked = true
			s.Cfg.FaultHook = func(stage int, u *state.Fields) {
				if prevHook != nil {
					prevHook(stage, u)
				}
				if stage == 1 && !injected {
					injected = true
					inj.poison(s)
				}
			}
		}
		zu0 := s.St.ZoneUpdates.Load()
		err := s.Step(cur)
		if hooked {
			s.Cfg.FaultHook = prevHook
		}
		if injected {
			g.Stats.Injected.Add(1)
		}
		if fallback {
			// Every zone of a global first-order retry runs at fallback
			// order (even if the attempt later fails validation).
			g.Stats.FallbackZones.Add(s.St.ZoneUpdates.Load() - zu0)
		}
		// Under StrictChecks the last stage's check has scanned the state
		// the step left, so the whole-state scan runs only when a post-step
		// injection has changed it since.
		if err == nil && g.Inject != nil && g.Inject.fire(s, g.steps) {
			g.Stats.Injected.Add(1)
			err = s.CheckState()
		} else if err == nil && !s.Cfg.StrictChecks {
			err = s.CheckState()
		}
		if err == nil {
			if fallback {
				if err := s.SetMethod(hiRec, hiRS); err != nil {
					return 0, err
				}
			}
			g.Stats.Troubled.Add(s.St.Troubled.Load() - tr0)
			rep := s.St.Repaired.Load() - rp0
			g.Stats.Repaired.Add(rep)
			// Locally repaired cells are the fail-safe's entire fallback-order
			// bill — the quantity the global retry pays per whole grid.
			g.Stats.FallbackZones.Add(rep)
			g.steps++
			return cur, nil
		}
		lastErr = err
		// A fail-safe demotion (troubled fraction over policy, or the local
		// repair failed) falls through to the global retry machinery with
		// the fail-safe off for this step's remaining attempts.
		var se *core.StateError
		if s.Cfg.FailSafe && errors.As(err, &se) && (se.RepairFailed || se.Troubled > 0) {
			g.Stats.Demotions.Add(1)
			s.Cfg.FailSafe = false
		}
	}
}

// Advance integrates to tEnd through the guard, choosing CFL-limited
// steps (shrunk further by retries) and clamping the final step onto
// tEnd. It returns the number of committed steps.
func (g *Guard) Advance(tEnd float64) (int, error) {
	s := g.S
	steps := 0
	for s.Time() < tEnd-1e-14 {
		if steps == 0 {
			s.RecoverPrimitives()
		}
		dt := s.MaxDt()
		if s.Time()+dt > tEnd {
			dt = tEnd - s.Time()
		}
		if dt <= 0 {
			return steps, fmt.Errorf("resilience: time step underflow at t=%v", s.Time())
		}
		if _, err := g.Step(dt); err != nil {
			return steps, fmt.Errorf("resilience: step %d at t=%v: %w", steps, s.Time(), err)
		}
		steps++
		if steps > 10_000_000 {
			return steps, fmt.Errorf("resilience: step budget exhausted at t=%v", s.Time())
		}
	}
	return steps, nil
}
