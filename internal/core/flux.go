package core

// The face-flux kernel. One kernel serves every reconstruction × Riemann
// solver × equation of state — the tile engine's x rows and y/z face
// planes, the fail-safe's high-order recompute and its first-order repair
// all run it — in place of the per-device kernels the paper generates
// from one numerical source. It works on runs of contiguous faces, as
// uniform loops over slabs: the scheme's edge kernel (recon.Scheme.Edges,
// through Reconstruct on a row) writes the face states, an admissibility
// pass writes the first-order fallback in place, riemann.EvalRow
// evaluates each side into struct-of-arrays face slabs, and Kind.FluxRow
// runs the LLF, HLL or HLLC combiner over the run. What is specialised is
// resolved once per run, not per face: the combiner, the sweep direction,
// and whether the gas is the Γ-law one, whose enthalpy and sound speed
// are inlined. What stays behind an interface is the reconstruction (one
// call per line per component) and, for every other gas, two EOS calls
// per face state in a pre-pass.

import (
	"rhsc/internal/eos"
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

// fillFlux reconstructs the gathered row (or tile segment) u of n cells
// and writes the Riemann fluxes of faces [cBeg, cEnd] into sc.fx (cell i
// owns faces i and i+1). Every caller goes through this one kernel, so a
// flux recomputed anywhere is bitwise the sweep's. Past the
// reconstruction it runs three passes over the row: admissibility, one
// evaluation per side into SoA face slabs, and one Riemann combine.
func (m *method) fillFlux(d state.Direction, u [state.NComp][]float64, n, cBeg, cEnd int,
	sc *rowScratch) {

	for c := 0; c < state.NComp; c++ {
		m.recon.Reconstruct(u[c], sc.fl[c][:n+1], sc.fr[c][:n+1])
	}
	lo, hi := cBeg, cEnd+1
	admit(&sc.fl, lo, hi, &u, lo-1)
	admit(&sc.fr, lo, hi, &u, lo)
	riemann.EvalRow(&sc.l, &sc.fl, m.eos, d, lo, hi)
	riemann.EvalRow(&sc.r, &sc.fr, m.eos, d, lo, hi)
	m.kind.FluxRow(&sc.l, &sc.r, &sc.fx, d, lo, hi)
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
