package c2p

import (
	"errors"
	"fmt"
	"math"

	"rhsc/internal/state"
)

// The one-cell inversion the tests drive; the solver itself recovers rows
// (RecoverRange, RecoverRangeEx).

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

// recover is Recover with the stats batched into st: the row kernel on a
// one-cell row that lives on the stack.
func (s *Solver) recover(c state.Cons, guess, gamma float64, st *statDelta) (state.Prim, error) {
	var buf [2 * state.NComp]float64
	u, w := state.Fields{N: 1}, state.Fields{N: 1}
	for k := range u.Comp {
		u.Comp[k], w.Comp[k] = buf[k:k+1], buf[state.NComp+k:state.NComp+k+1]
	}
	u.SetCons(0, c)
	w.Comp[state.IP][0] = guess
	res := s.recoverRow(&u, &w, 0, 1, nil, false, gamma, st)
	return w.GetPrim(0), res.why.err(c, res.badP)
}

// ErrUnphysical is wrapped by recovery errors for conserved states outside
// the physical domain (E+p ≤ |S| for every admissible p, negative D, …).
var ErrUnphysical = errors.New("c2p: unphysical conserved state")

// err formats the failure of conserved state c; p is the pressure a
// failRoot was rejected at.
func (f failure) err(c state.Cons, p float64) error {
	switch f {
	case failHopeless:
		return fmt.Errorf("%w: D=%v E=%v", ErrUnphysical, c.D, c.Tau+c.D)
	case failNoBracket:
		return fmt.Errorf("%w: no pressure bracket (D=%.3e S=%.3e tau=%.3e)",
			ErrUnphysical, c.D, math.Sqrt(c.SSq()), c.Tau)
	case failUnbounded:
		return fmt.Errorf("%w: unbounded pressure residual (D=%.3e)", ErrUnphysical, c.D)
	case failRoot:
		return fmt.Errorf("%w: inadmissible root p=%v", ErrUnphysical, p)
	}
	return nil
}
