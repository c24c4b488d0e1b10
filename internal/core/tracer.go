package core

// Passive composition tracer: a scalar X (electron fraction, metallicity,
// …) advected with the fluid. The conserved form is D_X = ρ W X = D·X
// with flux F(D_X) = F(D)·X_upwind, so the tracer rides on the mass flux
// the sweeps already compute and stays discretely consistent with it:
// where D is conserved, so is D_X, and X remains in [min, max] of its
// initial data (donor-cell upwinding is monotone).
//
// The tracer supports single-grid runs whose faces the grid fills itself:
// EnableTracer rejects a HaloExchange (distributed drivers own the
// ghosts) and a Custom face (its hook fills state.Fields only). AMR
// leaves never enable it.

import (
	"errors"
	"fmt"
	"math"

	"rhsc/internal/grid"
	"rhsc/internal/state"
)

// tracerState holds the tracer arrays; nil when the tracer is disabled.
type tracerState struct {
	cons []float64 // D_X, including ghosts
	prim []float64 // X
	rhs  []float64
	u0   []float64
}

// EnableTracer activates the passive scalar and imposes its initial
// profile X(x, y, z). Must be called after InitFromPrim (it needs the
// conserved density) and before stepping. It returns an error, and
// enables nothing, when
//   - the solver has a HaloExchange: distributed drivers own the ghosts;
//   - a grid face is Custom: its CustomFill hook writes state.Fields, not
//     the tracer, so an inflow face would have no tracer value.
func (s *Solver) EnableTracer(fn func(x, y, z float64) float64) error {
	if s.Cfg.HaloExchange != nil {
		return errors.New("core: tracer does not support HaloExchange drivers")
	}
	for d, sides := range s.G.BCs {
		for side, bc := range sides {
			if bc == grid.Custom {
				return fmt.Errorf("core: tracer does not support the Custom face %s-%s",
					state.Direction(d), [2]string{"lo", "hi"}[side])
			}
		}
	}
	n := s.G.NCells()
	s.trc = &tracerState{
		cons: make([]float64, n),
		prim: make([]float64, n),
		rhs:  make([]float64, n),
		u0:   make([]float64, n),
	}
	g := s.G
	g.ForEachInterior(func(idx, i, j, k int) {
		x := fn(g.X(i), g.Y(j), g.Z(k))
		if math.IsNaN(x) {
			panic(fmt.Sprintf("core: NaN tracer at (%d,%d,%d)", i, j, k))
		}
		s.trc.prim[idx] = x
		s.trc.cons[idx] = g.U.Comp[state.ID][idx] * x
	})
	grid.FillGhosts(s.G, s.trc.prim, grid.Scalar)
	return nil
}

// Tracer returns the tracer concentration X at flat cell index idx, or 0
// when the tracer is disabled.
func (s *Solver) Tracer(idx int) float64 {
	if s.trc == nil {
		return 0
	}
	return s.trc.prim[idx]
}

// tracerRecover refreshes X = D_X / D in the interior (clipped to the
// admissible range) and refills ghosts.
func (s *Solver) tracerRecover() {
	g := s.G
	g.ForEachInterior(func(idx, _, _, _ int) {
		d := g.U.Comp[state.ID][idx]
		if d <= 0 {
			s.trc.prim[idx] = 0
			return
		}
		s.trc.prim[idx] = s.trc.cons[idx] / d
	})
	grid.FillGhosts(s.G, s.trc.prim, grid.Scalar)
}

// tracerSweep accumulates the tracer flux differences of block blk's
// owned cells, reusing the mass fluxes fx[ID] the sweep just computed.
func (s *Solver) tracerSweep(blk *grid.FaceBlock, sc *rowScratch) {
	x := s.trc.prim
	fd := sc.fx[state.ID]
	out := s.trc.rhs
	invDx := 1 / blk.Dx
	// Face tracer fluxes: donor-cell upwinding on the mass flux, into the
	// fl[0] slots the sweep no longer needs.
	tf := sc.fl[0]
	n := blk.Lines * blk.Lanes
	for q := range blk.Lines {
		lo, hi, off := blk.Run(q, blk.Next, n)
		for f := lo; f < hi; f++ {
			up := off + f - blk.Stride
			if fd[f] < 0 {
				up += blk.Stride
			}
			tf[f] = fd[f] * x[up]
		}
	}
	for q := range blk.Lines {
		lo, hi, off := blk.Run(q, blk.Next, n-blk.Next)
		for f := lo; f < hi; f++ {
			out[off+f] -= (tf[f+blk.Next] - tf[f]) * invDx
		}
	}
}

// scalar helpers for the RK combinations.
func axpyScalar(dst []float64, a float64, src []float64) {
	for i := range dst {
		dst[i] += a * src[i]
	}
}

// lincomb2AXPYScalar computes dst ← a·u + b·(dst + s·g) in one pass,
// bitwise identical to axpyScalar(dst, s, g) followed by
// dst = a·u + b·dst (the scalar mirror of state.Fields.LinComb2AXPY).
func lincomb2AXPYScalar(dst []float64, a float64, u []float64, b, s float64, g []float64) {
	for i := range dst {
		dst[i] = a*u[i] + b*(dst[i]+s*g[i])
	}
}

func zeroScalar(dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
}
