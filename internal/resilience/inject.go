package resilience

import (
	"math"

	"rhsc/internal/core"
	"rhsc/internal/state"
)

// Injector deterministically corrupts one conserved cell after a chosen
// committed step's update, before the guard's validation — modelling a
// transient soft fault (memory bit flip, device glitch) that the step
// guards must catch and repair. Because the guard restores its pre-step
// snapshot on violation, the corruption is transient: once Count
// attempts have been poisoned, the retried step runs clean and the
// simulation proceeds. Deterministic by construction — no randomness, so
// a faulted run is exactly reproducible.
type Injector struct {
	// AtStep is the guard's committed-step index (0-based) whose update
	// gets corrupted.
	AtStep int
	// Count is how many consecutive attempts of that step to poison
	// (default 1). Values above the guard's firstOrderAfter (2) force the
	// first-order fallback to engage; values above maxRetries+1 (5)
	// exhaust the budget and surface a *StepFailure.
	Count int
	// Cell is the flat grid index to poison; negative selects the domain
	// centre.
	Cell int
	// Unphysical injects a finite but inadmissible state (tau < 0)
	// instead of NaN, exercising the positivity branch of validation.
	Unphysical bool
	// InStage moves the corruption inside the step: the guard installs it
	// through core.Config.FaultHook so the poison lands after the first RK
	// stage's update, before validation or fail-safe detection — the
	// corruption a local repair can catch mid-step instead of a post-step
	// scan rejecting the whole update. Count still bounds how many
	// attempts of AtStep get poisoned.
	InStage bool

	fired int
}

// fire poisons the state if this (step, attempt) is scheduled; it
// reports whether it injected. In-stage injectors never fire here — the
// guard routes them through the solver's FaultHook instead.
func (in *Injector) fire(s *core.Solver, step int) bool {
	if in == nil || in.InStage || !in.eligible(step) {
		return false
	}
	in.poison(s)
	return true
}

// eligible reports whether this committed step still has poisoned
// attempts budgeted.
func (in *Injector) eligible(step int) bool {
	if in == nil || step != in.AtStep {
		return false
	}
	count := in.Count
	if count == 0 {
		count = 1
	}
	return in.fired < count
}

// poison corrupts the scheduled cell and consumes one attempt from the
// budget. Callers check eligible first.
func (in *Injector) poison(s *core.Solver) {
	in.fired++
	g := s.G
	idx := in.Cell
	if idx < 0 {
		idx = g.Idx((g.IBeg()+g.IEnd())/2, (g.JBeg()+g.JEnd())/2, (g.KBeg()+g.KEnd())/2)
	}
	if in.Unphysical {
		g.U.Comp[state.ITau][idx] = -1
	} else {
		g.U.Comp[state.ITau][idx] = math.NaN()
	}
}
