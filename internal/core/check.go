package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
)

// StateError reports an invalid conserved state found by validation: the
// step produced non-finite values or drove the conserved density D or
// energy tau non-positive (both must stay positive for the c2p inversion
// to have a physical root). It is returned by Step under
// Config.StrictChecks and by CheckState; the resilience layer matches it
// with errors.As to trigger the retry/fallback path.
type StateError struct {
	// Stage is the RK stage (1-based) after which the violation was
	// detected, or 0 for a whole-state scan outside the integrator.
	Stage int
	// NonFinite, NegDens and NegEnergy count interior cells with NaN/Inf
	// conserved components, D <= 0, and tau <= 0 respectively. A cell is
	// counted once, in that priority order.
	NonFinite int
	NegDens   int
	NegEnergy int
	// C2PResets counts cells the stage's primitive recovery had to reset
	// to atmosphere (the c2p root-find failed there). The reset rewrites
	// the offending conserved state, so these cells pass the scans above;
	// First and FirstCons preserve what actually failed.
	C2PResets int
	// First is the (i,j,k) grid index of the lowest offending cell.
	First [3]int
	// FirstCons is the conserved state of that cell before any rewrite:
	// for C2PResets violations it is the pre-atmosphere-reset state the
	// inversion rejected, so retries and diagnostics see the real failure
	// rather than the floor state it was replaced with.
	FirstCons state.Cons
	// Troubled is the number of cells the a posteriori fail-safe detector
	// flagged when the step was aborted instead of locally repaired
	// (fraction over Config.FailSafeMaxFrac, or the repair itself failed).
	Troubled int
	// RepairFailed marks a fail-safe local repair that could not restore
	// an admissible state; the caller must fall back to a global retry.
	RepairFailed bool
}

// Error implements the error interface.
func (e *StateError) Error() string {
	where := "state scan"
	if e.Stage > 0 {
		where = fmt.Sprintf("RK stage %d", e.Stage)
	}
	if e.RepairFailed {
		return fmt.Sprintf("core: fail-safe local repair failed after %s: %d troubled, %d unrecoverable cells (first at %v)",
			where, e.Troubled, e.C2PResets, e.First)
	}
	if e.Troubled > 0 {
		return fmt.Sprintf("core: fail-safe demoted after %s: %d troubled cells exceed the policy fraction",
			where, e.Troubled)
	}
	return fmt.Sprintf("core: invalid state after %s: %d non-finite, %d D<=0, %d tau<=0, %d c2p-reset cells (first at %v)",
		where, e.NonFinite, e.NegDens, e.NegEnergy, e.C2PResets, e.First)
}

// Is makes errors.Is(err, ErrNonFinite) succeed for StateErrors whose
// violation includes non-finite cells, so existing callers that only probe
// for ErrNonFinite keep working when strict checks are on.
func (e *StateError) Is(target error) bool {
	return target == ErrNonFinite && e.NonFinite > 0
}

// CheckState scans the full interior conserved field for NaN/Inf and
// D/tau positivity and returns a *StateError describing the violations,
// or nil when the state is admissible. Unlike the cheap strided probe in
// Step, this visits every cell; the resilience layer calls it when
// validating a completed step.
func (s *Solver) CheckState() error {
	return s.checkState(0)
}

// checkState is CheckState with the RK stage recorded in the error.
func (s *Solver) checkState(stage int) error {
	g := s.G
	ny := g.JEnd() - g.JBeg()
	nz := g.KEnd() - g.KBeg()
	var nonFinite, negD, negTau atomic.Int64
	var first atomic.Int64
	first.Store(int64(len(g.U.Comp[0]))) // past-the-end sentinel
	s.parallelFor(ny*nz, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			j := g.JBeg() + r%ny
			k := g.KBeg() + r/ny
			row := (k*g.TotalY + j) * g.TotalX
			for i := g.IBeg(); i < g.IEnd(); i++ {
				idx := row + i
				bad := false
				for c := 0; c < state.NComp; c++ {
					// v − v is 0 for every finite v and NaN for NaN and ±Inf.
					if v := g.U.Comp[c][idx]; v-v != 0 {
						nonFinite.Add(1)
						bad = true
						break
					}
				}
				if !bad {
					if g.U.Comp[state.ID][idx] <= 0 {
						negD.Add(1)
						bad = true
					} else if g.U.Comp[state.ITau][idx] <= 0 {
						negTau.Add(1)
						bad = true
					}
				}
				if bad {
					for {
						cur := first.Load()
						if int64(idx) >= cur || first.CompareAndSwap(cur, int64(idx)) {
							break
						}
					}
				}
			}
		}
	})
	if nonFinite.Load() == 0 && negD.Load() == 0 && negTau.Load() == 0 {
		return nil
	}
	idx := int(first.Load())
	return &StateError{
		Stage:     stage,
		NonFinite: int(nonFinite.Load()),
		NegDens:   int(negD.Load()),
		NegEnergy: int(negTau.Load()),
		FirstCons: g.U.GetCons(idx),
		First: [3]int{
			idx % g.TotalX,
			(idx / g.TotalX) % g.TotalY,
			idx / (g.TotalX * g.TotalY),
		},
	}
}

// SetMethod swaps the reconstruction scheme and Riemann solver at run
// time. The grid's ghost width must cover the new scheme's stencil (any
// scheme no wider than the one the solver was built with fits). The
// resilience layer uses this to drop a retried step to piecewise-constant
// + HLL and to restore the high-order method afterwards.
func (s *Solver) SetMethod(rc recon.Scheme, rs riemann.Solver) error {
	if rc == nil || rs == nil {
		return errors.New("core: SetMethod needs a reconstruction scheme and a Riemann solver")
	}
	if need := rc.Ghost(); s.G.Ng < need {
		return fmt.Errorf("core: grid ghost width %d < %d required by %s",
			s.G.Ng, need, rc.Name())
	}
	s.Cfg.Recon = rc
	s.Cfg.Riemann = rs
	s.resolveMethod()
	return nil
}

// Method returns the currently configured reconstruction scheme and
// Riemann solver (the pair SetMethod swaps).
func (s *Solver) Method() (recon.Scheme, riemann.Solver) {
	return s.Cfg.Recon, s.Cfg.Riemann
}
