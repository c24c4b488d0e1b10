package core

// The face-flux kernel. One loop serves every reconstruction × Riemann
// solver × equation of state — the tile engine's sweeps, the fail-safe's
// high-order recompute and its first-order repair all run it — in place of
// the per-device kernels the paper generates from one numerical source.
// What is specialised is resolved once per method, not per face: the
// Γ-law gas has its enthalpy and sound speed inlined, and the Riemann
// combiner is a switch over riemann.Kind on face states evaluated here.
// What stays behind an interface is the reconstruction (one call per row
// per component) and, for every other gas, two EOS calls per face state.

import (
	"rhsc/internal/eos"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
)

// method is a numerical method resolved into what the per-face and
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
// owns faces i and i+1). Every caller goes through this one loop, so a
// flux recomputed anywhere is bitwise the sweep's.
func (m *method) fillFlux(d state.Direction, u [state.NComp][]float64, n, cBeg, cEnd int,
	sc *rowScratch) {

	for c := 0; c < state.NComp; c++ {
		m.recon.Reconstruct(u[c], sc.fl[c][:n+1], sc.fr[c][:n+1])
	}

	var l, r riemann.Face
	for f := cBeg; f <= cEnd; f++ {
		pl := state.Prim{
			Rho: sc.fl[state.IRho][f], Vx: sc.fl[state.IVx][f],
			Vy: sc.fl[state.IVy][f], Vz: sc.fl[state.IVz][f], P: sc.fl[state.IP][f],
		}
		pr := state.Prim{
			Rho: sc.fr[state.IRho][f], Vx: sc.fr[state.IVx][f],
			Vy: sc.fr[state.IVy][f], Vz: sc.fr[state.IVz][f], P: sc.fr[state.IP][f],
		}
		// Fall back to first-order states when high-order reconstruction
		// produced an inadmissible face state (possible near strong shocks
		// and vacuum).
		if !pl.IsPhysical() {
			pl = state.Prim{
				Rho: u[state.IRho][f-1], Vx: u[state.IVx][f-1],
				Vy: u[state.IVy][f-1], Vz: u[state.IVz][f-1], P: u[state.IP][f-1],
			}
		}
		if !pr.IsPhysical() {
			pr = state.Prim{
				Rho: u[state.IRho][f], Vx: u[state.IVx][f],
				Vy: u[state.IVy][f], Vz: u[state.IVz][f], P: u[state.IP][f],
			}
		}
		var hl, cl, hr, cr float64
		if m.ideal {
			hl, cl = m.gas.Enthalpy(pl.Rho, pl.P), m.gas.SoundSpeed2(pl.Rho, pl.P)
			hr, cr = m.gas.Enthalpy(pr.Rho, pr.P), m.gas.SoundSpeed2(pr.Rho, pr.P)
		} else {
			hl, cl = m.eos.Enthalpy(pl.Rho, pl.P), m.eos.SoundSpeed2(pl.Rho, pl.P)
			hr, cr = m.eos.Enthalpy(pr.Rho, pr.P), m.eos.SoundSpeed2(pr.Rho, pr.P)
		}
		l.Eval(hl, cl, pl, d)
		r.Eval(hr, cr, pr, d)
		sc.fx[state.ID][f], sc.fx[state.ISx][f], sc.fx[state.ISy][f], sc.fx[state.ISz][f],
			sc.fx[state.ITau][f] = m.kind.Flux(&l, &r, d)
	}
}
