package core

// A posteriori subcell fail-safe limiting (MOOD-style troubled-cell
// fallback). After each candidate RK stage the detector flags troubled
// cells — non-finite or positivity-violating conserved states, failed
// c2p inversions, and relaxed discrete-maximum-principle (DMP) rho/P
// jumps — and instead of rejecting the whole step the solver repairs
// locally:
//
//   - every face adjacent to a flagged cell has its high-order flux
//     replaced by the first-order PCM+HLL flux, computed from the same
//     pre-stage primitives the original sweep used;
//   - unflagged neighbours of a flagged cell receive the flux
//     *difference* (low − high) through the shared face, so both sides
//     of every face see the same corrected flux and conservation stays
//     exact (flux replacement, not cell replacement);
//   - flagged cells themselves are re-updated from the clean pre-stage
//     snapshot with the first-order divergence (their candidate value
//     may be NaN, so a differential patch would poison them).
//
// A stage with zero troubled cells performs the identical arithmetic of
// the plain pipeline (the detector only reads) and allocates nothing:
// all buffers are preallocated and the detector chunks are pre-bound,
// following the pooled-scratch discipline of the step pipeline.
//
// See docs/RESILIENCE.md ("Local repair") for the fault model and the
// conservation argument, and docs/PERFORMANCE.md for the mask-buffer
// allocation rules.

import (
	"math"

	"rhsc/internal/grid"
	"rhsc/internal/state"
)

// initFS allocates the fail-safe buffers and binds the detector chunks.
// Called lazily so Config.FailSafe may be toggled after New.
func (s *Solver) initFS() {
	g := s.G
	n := g.NCells()
	s.fsMask = make([]uint8, n)
	s.fsTouched = make([]uint8, n)
	s.fsU = state.NewFields(n)
	s.fsW = state.NewFields(n)
	s.fsStrides = s.fsStrides[:0]
	for _, d := range g.ActiveDims() {
		switch d {
		case state.X:
			s.fsStrides = append(s.fsStrides, 1)
		case state.Y:
			s.fsStrides = append(s.fsStrides, g.TotalX)
		default:
			s.fsStrides = append(s.fsStrides, g.TotalX*g.TotalY)
		}
	}
	s.fsScanChunk = func(lo, hi int) {
		gr := s.G
		ny := gr.JEnd() - gr.JBeg()
		mask := s.fsMask
		u := gr.U
		for r := lo; r < hi; r++ {
			j := gr.JBeg() + r%ny
			k := gr.KBeg() + r/ny
			row := (k*gr.TotalY + j) * gr.TotalX
			for i := gr.IBeg(); i < gr.IEnd(); i++ {
				idx := row + i
				bad := false
				for c := 0; c < state.NComp; c++ {
					v := u.Comp[c][idx]
					if math.IsNaN(v) || math.IsInf(v, 0) {
						bad = true
						break
					}
				}
				if !bad && (u.Comp[state.ID][idx] <= 0 || u.Comp[state.ITau][idx] <= 0) {
					bad = true
				}
				if bad {
					mask[idx] = 1
				}
			}
		}
	}
	s.fsDMPChunk = func(lo, hi int) {
		gr := s.G
		ny := gr.JEnd() - gr.JBeg()
		mask := s.fsMask
		relax := s.Cfg.FailSafeRelax
		if relax == 0 {
			relax = 1.0
		}
		rhoC, pC := gr.W.Comp[state.IRho], gr.W.Comp[state.IP]
		rho0, p0 := s.fsW.Comp[state.IRho], s.fsW.Comp[state.IP]
		count := 0
		for r := lo; r < hi; r++ {
			j := gr.JBeg() + r%ny
			k := gr.KBeg() + r/ny
			row := (k*gr.TotalY + j) * gr.TotalX
			for i := gr.IBeg(); i < gr.IEnd(); i++ {
				idx := row + i
				if mask[idx] != 0 {
					count++
					continue
				}
				if fsDMPViolates(rho0, rhoC[idx], idx, s.fsStrides, relax) ||
					fsDMPViolates(p0, pC[idx], idx, s.fsStrides, relax) {
					mask[idx] = 1
					count++
				}
			}
		}
		if count > 0 {
			s.fsCount.Add(int64(count))
		}
	}
}

// fsDMPViolates applies the relaxed discrete maximum principle: the
// candidate value v is admissible when it lies inside the pre-stage face
// neighbourhood's [min, max] widened by relax·(max−min) plus a relative
// cushion. The cushion must absorb normal smooth evolution in locally
// flat fields — there mx−mn vanishes and the range term gives no slack,
// so a uniform-pressure region would flag on any per-step change; 1e-3
// of the local magnitude tolerates that while staying orders of
// magnitude below the corruption the detector exists to catch.
func fsDMPViolates(ref []float64, v float64, idx int, strides []int, relax float64) bool {
	mn, mx := ref[idx], ref[idx]
	for _, st := range strides {
		if a := ref[idx-st]; a < mn {
			mn = a
		} else if a > mx {
			mx = a
		}
		if a := ref[idx+st]; a < mn {
			mn = a
		} else if a > mx {
			mx = a
		}
	}
	delta := relax*(mx-mn) + 1e-3*math.Max(math.Abs(mn), math.Abs(mx))
	return v < mn-delta || v > mx+delta
}

// fsBegin snapshots the pre-stage state (U and W, ghosts included) the
// detector and repair reference, after ComputeRHS and before the stage's
// conserved update.
func (s *Solver) fsBegin() {
	if s.fsMask == nil {
		s.initFS()
	}
	s.fsU.CopyFrom(s.G.U)
	s.fsW.CopyFrom(s.G.W)
}

// fsDetect runs the troubled-cell detector on the candidate stage: a
// conserved-state scan (NaN/Inf, D<=0, tau<=0), the stage's primitive
// recovery in flagging mode (failed inversions mark the mask and leave U
// untouched), and the relaxed-DMP rho/P admissibility check against the
// pre-stage neighbourhood. It returns the number of flagged interior
// cells; with zero the solver state is exactly what the plain stage
// recovery produces — bitwise — and nothing was allocated.
func (s *Solver) fsDetect() int {
	g := s.G
	clear(s.fsMask)
	s.fsCount.Store(0)
	ny := g.JEnd() - g.JBeg()
	nz := g.KEnd() - g.KBeg()
	s.parallelFor(ny*nz, s.fsScanChunk)
	s.recoverPrims(true)
	s.parallelFor(ny*nz, s.fsDMPChunk)
	return int(s.fsCount.Load())
}

// FSMask exposes the troubled-cell mask (full grid layout, ghosts
// included), allocating the fail-safe buffers on first use — halo
// replicas in a distributed run install neighbour masks without ever
// running the detector themselves. The tree drivers' Masks hooks read
// interior flags and write ghost-band entries of faces marked
// grid.External before fsRepair, mirroring the primitive halo exchange.
func (s *Solver) FSMask() []uint8 {
	if s.fsMask == nil {
		s.initFS()
	}
	return s.fsMask
}

// fsRepair re-updates the flagged cells of the candidate stage with
// first-order PCM+HLL fluxes and applies the matching flux differences
// to their unflagged neighbours, then re-recovers every touched cell.
// The mask must be current (fsDetect, plus any external ghost-band fill
// by the Masks hook); (a, b) are the stage's SSP combination
// coefficients and dt its step. The repair runs serially — it is the
// rare path, and strict determinism makes repaired runs reproducible and
// partition invariant.
func (s *Solver) fsRepair(stage int, dt, a, b float64) error {
	g := s.G
	// The grid's own faces, as for the primitives; External (and Custom)
	// mask ghosts are the driver's, filled by the Masks hook.
	grid.FillGhosts(g, s.fsMask, grid.Scalar)
	clear(s.fsTouched)

	scO := s.getScratch()
	scL := s.getScratch()
	defer s.putScratch(scO)
	defer s.putScratch(scL)

	// The tile engine's blocks, tile by tile in its X→Y→Z order: each
	// cell's corrections arrive in the order its sweep contributions did.
	for _, tl := range s.tiles {
		for di, d := range g.ActiveDims() {
			g.EachBlock(tl, d, func(blk grid.FaceBlock) { s.fsRepairBlock(&blk, di == 0, dt, b, scO, scL) })
		}
	}

	// Flagged cells: re-update from the clean pre-stage snapshot with the
	// accumulated first-order divergence.
	mask, touched := s.fsMask, s.fsTouched
	u, u0, fu, rhs := g.U, s.u0, s.fsU, s.rhs
	g.ForEachInterior(func(idx, _, _, _ int) {
		if mask[idx] == 0 {
			return
		}
		for c := 0; c < state.NComp; c++ {
			u.Comp[c][idx] = a*u0.Comp[c][idx] + b*(fu.Comp[c][idx]+dt*rhs.Comp[c][idx])
		}
		touched[idx] = 1
	})

	// Re-recover every touched cell, seeding the Newton guess with the
	// pre-stage pressure: a halo replica of a repaired cell recovers the
	// exchanged U with *its* current (pre-stage) pressure, so the owner
	// must use the same guess for the roots — and hence the runs — to be
	// bitwise rank-count invariant.
	pW, pW0 := g.W.Comp[state.IP], s.fsW.Comp[state.IP]
	failures := 0
	firstIdx := -1
	var firstCons state.Cons
	g.ForEachInterior(func(idx, _, _, _ int) {
		if touched[idx] == 0 {
			return
		}
		pW[idx] = pW0[idx]
		res := s.C2P.RecoverRangeEx(g.U, g.W, idx, idx+1, nil, false)
		if res.Failures > 0 {
			failures += res.Failures
			if firstIdx < 0 {
				firstIdx, firstCons = idx, res.FirstCons
			}
		}
	})
	if failures > 0 {
		e := &StateError{Stage: stage, RepairFailed: true, C2PResets: failures, FirstCons: firstCons}
		e.First = [3]int{firstIdx % g.TotalX, (firstIdx / g.TotalX) % g.TotalY,
			firstIdx / (g.TotalX * g.TotalY)}
		return e
	}

	g.ApplyBCs(g.W)
	// The repair rewrote W at touched cells, so any in-pass CFL reduction
	// folded by the detection recovery is stale.
	s.cflValid = false
	return nil
}

// fsRepairBlock patches one face block: when any of its cells (the owned
// ones and their neighbours along the sweep) is flagged, it recomputes
// the block's original fluxes from the pre-stage primitives with the
// configured method — through the face pipeline the sweep ran, so bitwise
// the fluxes the stage used — and the first-order PCM+HLL fluxes. Each
// unflagged owned cell then takes the difference (low − high) of every
// dirty face (a face with a flagged cell on either side), lower face
// first, and each flagged owned cell's first-order divergence goes into
// s.rhs (overwriting on the first active direction, exactly like the
// sweep).
func (s *Solver) fsRepairBlock(blk *grid.FaceBlock, overwrite bool, dt, b float64, scO, scL *rowScratch) {
	mask := s.fsMask
	n := blk.Lines * blk.Lanes
	dirty := false
	for q := range blk.Lines {
		lo, hi, off := blk.Run(q, 0, n)
		dirty = dirty || maskAny(mask[off+lo:off+hi])
	}
	if !dirty {
		return
	}
	s.m.fluxes(s.fsW, blk, scO)
	// First-order fallback fluxes from the same pre-stage primitives —
	// bitwise the flux a global PCM+HLL step (the resilience layer's retry
	// scheme) would have used.
	s.low.fluxes(s.fsW, blk, scL)

	u, rhs, touched := s.G.U, s.rhs, s.fsTouched
	coef := b * dt / blk.Dx
	invDx := 1 / blk.Dx
	next := blk.Next
	for q := range blk.Lines {
		lo, hi, off := blk.Run(q, next, n-next)
		for f := lo; f < hi; f++ {
			idx := off + f
			if mask[idx] != 0 {
				// Flagged: rebuilt wholesale from the first-order divergence,
				// with accumulate's overwrite/accumulate split so the
				// directions compose exactly like a sweep.
				for c := range rhs.Comp {
					div := 0 - (scL.fx[c][f+next]-scL.fx[c][f])*invDx
					if overwrite {
						rhs.Comp[c][idx] = div
					} else {
						rhs.Comp[c][idx] += div
					}
				}
				continue
			}
			// A face's lower cell loses its flux and its upper cell gains
			// it; applying the same difference with opposite signs on the
			// two sides keeps the pair conservative to round-off.
			lm, um := mask[idx-blk.Stride] != 0, mask[idx+blk.Stride] != 0
			if !lm && !um {
				continue
			}
			for c := range u.Comp {
				if lm {
					u.Comp[c][idx] += coef * (scL.fx[c][f] - scO.fx[c][f])
				}
				if um {
					u.Comp[c][idx] -= coef * (scL.fx[c][f+next] - scO.fx[c][f+next])
				}
			}
			touched[idx] = 1
		}
	}
}
