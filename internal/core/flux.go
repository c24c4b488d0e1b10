package core

// The face pipeline. One pipeline serves every reconstruction × Riemann
// solver × equation of state and every flux the solver takes — the tile
// engine's x rows and y/z face planes, and the fail-safe's high-order
// recompute and first-order repair flux — in place of the per-device
// kernels the paper generates from one numerical source. It runs on a
// face block (grid.FaceBlock): lines of contiguous x cells read in place
// from a primitive field, as uniform loops over slabs. The scheme's edge
// kernel (recon.Scheme.Edges) writes the face states, an admissibility
// pass writes the first-order fallback in place, riemann.EvalRow
// evaluates each side into struct-of-arrays face slabs, and Kind.FluxRow
// runs the LLF, HLL or HLLC combiner over the faces. What is specialised
// is resolved once per block, not per face: the combiner, the sweep
// direction, and whether the gas is the Γ-law one, whose enthalpy and
// sound speed are inlined. What stays behind an interface is the
// reconstruction (one call per block per component) and, for every other
// gas, two EOS calls per face state in a pre-pass.

import (
	"rhsc/internal/eos"
	"rhsc/internal/grid"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
)

// method is a numerical method resolved into what the row passes and the
// per-cell loops branch on.
type method struct {
	recon recon.Scheme
	kind  riemann.Kind
	eos   eos.EOS
	gas   eos.IdealGas // eos as its concrete type when ideal
	ideal bool
}

// resolveMethod caches the configured method and its first-order PCM+HLL
// fallback, the fail-safe's repair scheme. New and SetMethod call it;
// nothing else may change Cfg.EOS, Cfg.Recon or Cfg.Riemann.
func (s *Solver) resolveMethod() {
	m := method{recon: s.Cfg.Recon, kind: s.Cfg.Riemann.Kind(), eos: s.Cfg.EOS}
	m.gas, m.ideal = s.Cfg.EOS.(eos.IdealGas)
	s.m = m
	m.recon, m.kind = recon.PCM{}, riemann.KindHLL
	s.low = m
}

// fluxes writes the face fluxes of block blk, from primitive field w,
// into face slots [Next, Lines·Lanes) of sc.fx. Every flux the solver
// takes comes from here, so a flux recomputed anywhere is bitwise the
// sweep's.
func (m *method) fluxes(w *state.Fields, blk *grid.FaceBlock, sc *rowScratch) {
	n := blk.Lines * blk.Lanes
	// Cell slot s writes its left edge to fr[s], the right state of its
	// lower face, and its right edge to fl[s+Next], the left state of its
	// upper face.
	for c, u := range w.Comp {
		m.recon.Edges(u, blk.Base, blk.Stride, blk.Lines, sc.fr[c][:n], sc.fl[c][blk.Next:blk.Next+n])
	}
	for q := range blk.Lines {
		if lo, hi, off := blk.Run(q, blk.Next, n); lo < hi {
			admit(&sc.fl, lo, hi, &w.Comp, off+lo-blk.Stride)
			admit(&sc.fr, lo, hi, &w.Comp, off+lo)
		}
	}
	// The evaluated face slabs hold an x row's faces, so a plane's faces
	// go through EvalRow and FluxRow in runs of as many whole face lines
	// as fit.
	per := len(sc.l.D)
	if blk.Lanes <= per {
		per -= per % blk.Lanes
	}
	for f0 := blk.Next; f0 < n; f0 += per {
		k := min(per, n-f0)
		var ql, qr, fx [state.NComp][]float64
		for c := range ql {
			ql[c], qr[c], fx[c] = sc.fl[c][f0:], sc.fr[c][f0:], sc.fx[c][f0:]
		}
		riemann.EvalRow(&sc.l, &ql, m.eos, blk.D, 0, k)
		riemann.EvalRow(&sc.r, &qr, m.eos, blk.D, 0, k)
		m.kind.FluxRow(&sc.l, &sc.r, &fx, blk.D, 0, k)
	}
}

// admit falls back to first-order states where high-order reconstruction
// produced an inadmissible face state (possible near strong shocks and
// vacuum): face f of q in [lo, hi) takes the primitives of cell
// ulo+(f−lo) of u, the cell on that face's side. The test is
// state.Prim.IsPhysical's, NaN failing every comparison.
func admit(q *[state.NComp][]float64, lo, hi int, u *[state.NComp][]float64, ulo int) {
	rho, vx, vy, vz, p := q[state.IRho][lo:hi], q[state.IVx][lo:hi], q[state.IVy][lo:hi],
		q[state.IVz][lo:hi], q[state.IP][lo:hi]
	n := hi - lo
	uRho, uVx, uVy, uVz, uP := u[state.IRho][ulo:][:n], u[state.IVx][ulo:][:n],
		u[state.IVy][ulo:][:n], u[state.IVz][ulo:][:n], u[state.IP][ulo:][:n]
	for i := range rho {
		if rho[i] > 0 && p[i] > 0 && vx[i]*vx[i]+vy[i]*vy[i]+vz[i]*vz[i] < 1 {
			continue
		}
		rho[i], vx[i], vy[i], vz[i], p[i] = uRho[i], uVx[i], uVy[i], uVz[i], uP[i]
	}
}
