// Package newton implements a classical (non-relativistic) compressible
// Euler solver as the baseline the relativistic solver is compared
// against. It shares the reconstruction schemes, grids, boundary
// conditions and face-block walk (grid.Grid.EachBlock) with the SRHD
// core, but uses the Newtonian conserved variables (ρ, ρv, E), a
// closed-form primitive recovery, and the classical HLLC Riemann solver
// (Toro).
//
// Where the two solvers must agree — flows with v ≪ c and p ≪ ρc² — the
// tests verify they do; where relativity matters (relativistic internal
// energies or Lorentz factors) the baseline's shock speeds are wrong in a
// characteristic, measurable way, which is exactly the comparison the
// library's examples demonstrate.
//
// Component layout reuses state.Fields with the interpretation
// (ρ, m_x, m_y, m_z, E) for conserved and (ρ, v_x, v_y, v_z, p) for
// primitive fields.
package newton

import (
	"errors"
	"fmt"
	"math"

	"rhsc/internal/grid"
	"rhsc/internal/recon"
	"rhsc/internal/state"
)

// Config selects the numerical method of the baseline solver.
type Config struct {
	Gamma float64      // adiabatic index
	Recon recon.Scheme // face reconstruction
	CFL   float64
}

// Floors applied during recovery.
const (
	rhoFloor = 1e-13
	pFloor   = 1e-15
)

// DefaultConfig mirrors the relativistic DefaultConfig: PLM-MC, CFL 0.4,
// Γ = 5/3.
func DefaultConfig() Config {
	return Config{
		Gamma: 5.0 / 3.0,
		Recon: recon.PLM{Lim: recon.MonotonizedCentral},
		CFL:   0.4,
	}
}

// Solver advances the Euler equations on one grid with SSP-RK2.
type Solver struct {
	G   *grid.Grid
	Cfg Config

	t   float64
	rhs *state.Fields
	u0  *state.Fields
	// The face slots of one face block: left and right states, fluxes.
	fl, fr, fx *state.Fields
}

// New constructs the baseline solver.
func New(g *grid.Grid, cfg Config) (*Solver, error) {
	if cfg.Gamma <= 1 {
		return nil, fmt.Errorf("newton: gamma %v must exceed 1", cfg.Gamma)
	}
	if cfg.Recon == nil || cfg.CFL <= 0 || cfg.CFL > 1 {
		return nil, errors.New("newton: invalid Recon/CFL")
	}
	if g.Ng < cfg.Recon.Ghost() {
		return nil, fmt.Errorf("newton: ghost width %d below %d", g.Ng, cfg.Recon.Ghost())
	}
	n := g.BlockSlots(g.Ny, g.Nz)
	return &Solver{G: g, Cfg: cfg,
		rhs: state.NewFields(g.NCells()),
		u0:  state.NewFields(g.NCells()),
		fl:  state.NewFields(n),
		fr:  state.NewFields(n),
		fx:  state.NewFields(n),
	}, nil
}

// primToCons converts (ρ, v, p) to (ρ, ρv, E).
func (s *Solver) primToCons(w state.Prim) state.Cons {
	v2 := w.Vx*w.Vx + w.Vy*w.Vy + w.Vz*w.Vz
	return state.Cons{
		D:   w.Rho,
		Sx:  w.Rho * w.Vx,
		Sy:  w.Rho * w.Vy,
		Sz:  w.Rho * w.Vz,
		Tau: w.P/(s.Cfg.Gamma-1) + 0.5*w.Rho*v2,
	}
}

// consToPrim inverts in closed form, applying floors.
func (s *Solver) consToPrim(c state.Cons) state.Prim {
	rho := c.D
	if rho < rhoFloor {
		rho = rhoFloor
	}
	inv := 1 / rho
	vx, vy, vz := c.Sx*inv, c.Sy*inv, c.Sz*inv
	kin := 0.5 * rho * (vx*vx + vy*vy + vz*vz)
	p := (s.Cfg.Gamma - 1) * (c.Tau - kin)
	if p < pFloor {
		p = pFloor
	}
	return state.Prim{Rho: rho, Vx: vx, Vy: vy, Vz: vz, P: p}
}

// InitFromPrim fills the grid and synchronises conserved variables.
func (s *Solver) InitFromPrim(fn func(x, y, z float64) state.Prim) {
	g := s.G
	g.ForEachInterior(func(idx, i, j, k int) {
		w := fn(g.X(i), g.Y(j), g.Z(k))
		if w.Rho <= 0 || w.P <= 0 {
			panic(fmt.Sprintf("newton: unphysical initial state %+v", w))
		}
		g.W.SetPrim(idx, w)
		g.U.SetCons(idx, s.primToCons(w))
	})
	g.ApplyBCs(g.W)
	g.ApplyBCs(g.U)
}

// recover refreshes primitives everywhere.
func (s *Solver) recover() {
	g := s.G
	g.ForEachInterior(func(idx, _, _, _ int) {
		g.W.SetPrim(idx, s.consToPrim(g.U.GetCons(idx)))
	})
	g.ApplyBCs(g.W)
}

// soundSpeed returns sqrt(Γ p / ρ).
func (s *Solver) soundSpeed(rho, p float64) float64 {
	return math.Sqrt(s.Cfg.Gamma * p / rho)
}

// MaxDt returns the CFL-limited step.
func (s *Solver) MaxDt() float64 {
	g := s.G
	maxSum := 0.0
	g.ForEachInterior(func(idx, _, _, _ int) {
		w := g.W.GetPrim(idx)
		cs := s.soundSpeed(w.Rho, w.P)
		sum := (math.Abs(w.Vx) + cs) / g.Dx
		if g.Ny > 1 {
			sum += (math.Abs(w.Vy) + cs) / g.Dy
		}
		if g.Nz > 1 {
			sum += (math.Abs(w.Vz) + cs) / g.Dz
		}
		if sum > maxSum {
			maxSum = sum
		}
	})
	if maxSum <= 0 {
		maxSum = 1 / g.Dx
	}
	return s.Cfg.CFL / maxSum
}

// flux returns the physical Euler flux along d for primitive w.
func (s *Solver) flux(w state.Prim, d state.Direction) state.Cons {
	c := s.primToCons(w)
	vd := w.V(d)
	f := state.Cons{
		D:   c.D * vd,
		Sx:  c.Sx * vd,
		Sy:  c.Sy * vd,
		Sz:  c.Sz * vd,
		Tau: (c.Tau + w.P) * vd,
	}
	switch d {
	case state.X:
		f.Sx += w.P
	case state.Y:
		f.Sy += w.P
	default:
		f.Sz += w.P
	}
	return f
}

// hllc is the classical HLLC solver (Toro, 10th chapter) along d.
func (s *Solver) hllc(wl, wr state.Prim, d state.Direction) state.Cons {
	vl, vr := wl.V(d), wr.V(d)
	cl := s.soundSpeed(wl.Rho, wl.P)
	cr := s.soundSpeed(wr.Rho, wr.P)
	sl := math.Min(vl-cl, vr-cr)
	sr := math.Max(vl+cl, vr+cr)
	switch {
	case sl >= 0:
		return s.flux(wl, d)
	case sr <= 0:
		return s.flux(wr, d)
	}
	ul := s.primToCons(wl)
	ur := s.primToCons(wr)
	ml, mr := ul.S(d), ur.S(d)
	// Contact speed.
	num := wr.P - wl.P + ml*(sl-vl) - mr*(sr-vr)
	den := wl.Rho*(sl-vl) - wr.Rho*(sr-vr)
	sstar := num / den
	pick := func(w state.Prim, u state.Cons, sk, vk float64) state.Cons {
		f := s.flux(w, d)
		coef := w.Rho * (sk - vk) / (sk - sstar)
		var ust state.Cons
		ust.D = coef
		ust.Sx = coef * w.Vx
		ust.Sy = coef * w.Vy
		ust.Sz = coef * w.Vz
		switch d {
		case state.X:
			ust.Sx = coef * sstar
		case state.Y:
			ust.Sy = coef * sstar
		default:
			ust.Sz = coef * sstar
		}
		e := u.Tau
		ust.Tau = coef * (e/w.Rho + (sstar-vk)*(sstar+w.P/(w.Rho*(sk-vk))))
		return state.Cons{
			D:   f.D + sk*(ust.D-u.D),
			Sx:  f.Sx + sk*(ust.Sx-u.Sx),
			Sy:  f.Sy + sk*(ust.Sy-u.Sy),
			Sz:  f.Sz + sk*(ust.Sz-u.Sz),
			Tau: f.Tau + sk*(ust.Tau-u.Tau),
		}
	}
	if sstar >= 0 {
		return pick(wl, ul, sl, vl)
	}
	return pick(wr, ur, sr, vr)
}

// computeRHS writes −∂F/∂x, summed over the active dimensions in the
// fixed order X, Y, Z, into the interior of rhs. The grid is one tile:
// its x rows, then its y and z face planes in x chunks, read in place
// from W as core's sweeps read them.
func (s *Solver) computeRHS(rhs *state.Fields) {
	g := s.G
	all := grid.Tile{J0: g.JBeg(), J1: g.JEnd(), K0: g.KBeg(), K1: g.KEnd()}
	for di, d := range g.ActiveDims() {
		g.EachBlock(all, d, func(blk grid.FaceBlock) {
			s.fluxes(&blk)
			blk.Accumulate(&s.fx.Comp, rhs, di == 0)
		})
	}
}

// fluxes writes the classical HLLC fluxes of block blk into face slots
// [Next, Lines·Lanes) of s.fx. A face state that is not positive falls
// back to the primitives of the cell on its side.
func (s *Solver) fluxes(blk *grid.FaceBlock) {
	w := s.G.W
	n := blk.Lines * blk.Lanes
	for c, u := range w.Comp {
		s.Cfg.Recon.Edges(u, blk.Base, blk.Stride, blk.Lines, s.fr.Comp[c][:n], s.fl.Comp[c][blk.Next:blk.Next+n])
	}
	for q := range blk.Lines {
		lo, hi, off := blk.Run(q, blk.Next, n)
		for f := lo; f < hi; f++ {
			wl, wr := s.fl.GetPrim(f), s.fr.GetPrim(f)
			// Written so that a NaN state, which fails every comparison,
			// falls back too.
			if !(wl.Rho > 0 && wl.P > 0) {
				wl = w.GetPrim(off + f - blk.Stride)
			}
			if !(wr.Rho > 0 && wr.P > 0) {
				wr = w.GetPrim(off + f)
			}
			s.fx.SetCons(f, s.hllc(wl, wr, blk.D))
		}
	}
}

// Step advances by dt with SSP RK2.
func (s *Solver) Step(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("newton: non-positive dt %v", dt)
	}
	u := s.G.U
	s.u0.CopyFrom(u)
	s.computeRHS(s.rhs)
	u.AXPY(dt, s.rhs)
	s.recover()
	s.computeRHS(s.rhs)
	u.AXPY(dt, s.rhs)
	u.LinComb2(0.5, s.u0, 0.5, u)
	s.recover()
	s.t += dt
	return nil
}

// Advance integrates to tEnd.
func (s *Solver) Advance(tEnd float64) (int, error) {
	steps := 0
	for s.t < tEnd-1e-14 {
		dt := s.MaxDt()
		if s.t+dt > tEnd {
			dt = tEnd - s.t
		}
		if err := s.Step(dt); err != nil {
			return steps, err
		}
		steps++
		if steps > 10_000_000 {
			return steps, errors.New("newton: step budget exhausted")
		}
	}
	return steps, nil
}
