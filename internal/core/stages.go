package core

import "errors"

// sspRow is one stage of an SSP Runge–Kutta integrator in Shu–Osher
// form: the stage writes the candidate a·u⁰ + b·(u + dt·L(u)), where u⁰
// is the state the step started from and u the previous stage's.
type sspRow struct{ a, b float64 }

// sspRows is every integrator's stage table, indexed by Integrator.
// Row one is always the plain Euler update (0, 1).
var sspRows = [...][]sspRow{
	RK1: {{0, 1}},
	RK2: {{0, 1}, {0.5, 0.5}},
	RK3: {{0, 1}, {0.75, 0.25}, {1.0 / 3.0, 2.0 / 3.0}},
}

// StepHooks are the two points at which StepSolvers hands control to the
// driver that knows where the stepped solvers' neighbours live: nowhere
// (Solver.Step), in the same block tree (amr.Tree.Step), or on other
// ranks (package damr). stage is 1-based.
type StepHooks struct {
	// Masks runs only under Config.FailSafe, once per stage, between
	// detection and repair; troubled is the number of cells the detector
	// flagged on the stepped solvers. It may demote the stage to an error
	// (Config.FailSafeMaxFrac). Otherwise, on return, the troubled-cell
	// mask (FSMask) of every stepped solver must be current, ghost bands
	// of faces marked grid.External included, and repair reports whether
	// any of those masks carries a flag; when none does the stage skips
	// the repair.
	Masks func(stage, troubled int) (repair bool, err error)
	// Halos runs at the end of each stage. On return every stepped solver
	// and every neighbour it reads must hold primitives recovered exactly
	// once from its new conserved state, ghosts refilled. recovered
	// reports that the stepped solvers are already recovered — a
	// fail-safe stage, whose detection and repair recover as they go —
	// and must not be recovered again: a cell whose stored primitives were
	// clamped (pressure floor, velocity cap) would re-enter Newton from
	// the clamped guess and land on a marginally different root than the
	// plain path's single recovery.
	Halos func(stage int, recovered bool) error
}

// StepTally is what one StepSolvers call did, counted also when it
// returns an error part-way.
type StepTally struct {
	Swept    int64 // interior zones swept, summed over stages and solvers
	Troubled int64 // cells the fail-safe detector flagged
	Repaired int64 // flagged cells the local repair re-updated
}

// StepSolvers advances every solver of sols by dt with cfg's SSP
// integrator, stage-synchronously: the one stage sequence of the uniform,
// the tree and the distributed driver. Each stage
//
//   - sweeps every solver (ComputeRHS);
//   - writes every solver's candidate a·u⁰ + b·(u + dt·L(u)) — row one as
//     the plain AXPY, later rows fused with the SSP combine, u⁰ copied
//     only when a later row reads it;
//   - hands each candidate to cfg.FaultHook;
//   - under cfg.FailSafe detects troubled cells, calls h.Masks, and
//     repairs every solver whose mask carries a flag (failsafe.go);
//   - calls h.Halos, then under cfg.StrictChecks validates every solver.
//
// The last stage's recovery is armed to fold the CFL reduction in, so
// the next MaxDt is a combine. cfg supplies the integrator, FaultHook,
// FailSafe and StrictChecks; every other setting is each solver's own.
// Ghosts must be current on entry. An error aborts the step and leaves
// the solvers mid-stage; the solution clocks are the caller's to move.
func StepSolvers(cfg *Config, sols []*Solver, dt float64, h StepHooks) (StepTally, error) {
	var tally StepTally
	rows := sspRows[cfg.Integrator]
	fs := cfg.FailSafe
	for k, row := range rows {
		stage := k + 1
		// All sweeps, then all updates: interleaving the streaming update
		// with the next solver's sweep measured 2–5 % slower on the tree.
		for _, s := range sols {
			if stage == len(rows) {
				s.cflAccum = true
			}
			s.ComputeRHS(s.rhs)
			tally.Swept += int64(s.G.Nx * s.G.Ny * s.G.Nz)
		}
		for _, s := range sols {
			if fs {
				s.fsBegin()
			}
			s.stageUpdate(k, len(rows) > 1, dt, row)
		}
		if hook := cfg.FaultHook; hook != nil {
			for _, s := range sols {
				hook(stage, s.G.U)
			}
		}
		if fs {
			troubled := 0
			for _, s := range sols {
				troubled += s.fsDetect()
			}
			tally.Troubled += int64(troubled)
			repair, err := h.Masks(stage, troubled)
			if err != nil {
				return tally, err
			}
			if repair {
				for _, s := range sols {
					if !maskAny(s.fsMask) {
						continue
					}
					if err := s.fsRepair(stage, dt, row.a, row.b); err != nil {
						var se *StateError
						if errors.As(err, &se) {
							se.Troubled = troubled
						}
						return tally, err
					}
				}
				tally.Repaired += int64(troubled)
			}
		}
		if err := h.Halos(stage, fs); err != nil {
			return tally, err
		}
		if cfg.StrictChecks {
			for _, s := range sols {
				if err := s.stageCheck(stage, fs); err != nil {
					return tally, err
				}
			}
		}
	}
	return tally, nil
}

// stageUpdate writes stage k's candidate into U (and the passive
// tracer's): k = 0 is u ← u + dt·L(u), first saving u⁰ when keepU0 says
// a later row reads it; later rows fuse the Euler substep with the SSP
// combine, u ← a·u⁰ + b·(u + dt·L(u)), in one traversal whose per-element
// arithmetic is the split operations' bitwise.
func (s *Solver) stageUpdate(k int, keepU0 bool, dt float64, row sspRow) {
	u := s.G.U
	if k == 0 {
		if keepU0 {
			s.u0.CopyFrom(u)
			if s.trc != nil {
				copy(s.trc.u0, s.trc.cons)
			}
		}
		u.AXPY(dt, s.rhs)
		if s.trc != nil {
			axpyScalar(s.trc.cons, dt, s.trc.rhs)
		}
		return
	}
	u.LinComb2AXPY(row.a, s.u0, row.b, dt, s.rhs)
	if s.trc != nil {
		lincomb2AXPYScalar(s.trc.cons, row.a, s.trc.u0, row.b, dt, s.trc.rhs)
	}
}

// stageCheck validates the whole interior after an RK stage under
// Config.StrictChecks; a violation aborts the step mid-update. A plain
// stage also fails on any atmosphere reset of its recovery (the count is
// the only trace of a failed inversion); a fail-safe stage's recovery
// flags failures for the repair instead of resetting them.
func (s *Solver) stageCheck(stage int, failSafe bool) error {
	if resets := int(s.recResets.Load()); !failSafe && resets > 0 {
		e := &StateError{Stage: stage, C2PResets: resets}
		if idx := s.recFirstIdx; idx >= 0 {
			g := s.G
			e.First = [3]int{idx % g.TotalX, (idx / g.TotalX) % g.TotalY, idx / (g.TotalX * g.TotalY)}
			e.FirstCons = s.recFirstCons
		}
		return e
	}
	return s.checkState(stage)
}

// FailSafeDemotion is the fail-safe's global escape: under a positive
// FailSafeMaxFrac, a stage whose troubled cells exceed that fraction of
// zones is returned as a *StateError for the caller's global retry — a
// failure that widespread is not local. The single-solver and the tree
// Masks hooks both apply it.
func (c *Config) FailSafeDemotion(stage, troubled, zones int) error {
	if c.FailSafeMaxFrac > 0 && float64(troubled)/float64(zones) > c.FailSafeMaxFrac {
		return &StateError{Stage: stage, Troubled: troubled}
	}
	return nil
}

// maskAny reports whether any cell (interior or ghost) is flagged — a
// ghost flag alone still dirties local faces, so the solver must repair.
func maskAny(m []uint8) bool {
	for _, v := range m {
		if v != 0 {
			return true
		}
	}
	return false
}
