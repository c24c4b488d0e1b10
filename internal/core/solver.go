// Package core implements the paper's primary contribution: the
// high-resolution shock-capturing solver for special relativistic
// hydrodynamics, organised for scalable heterogeneous execution.
//
// The scheme is a finite-volume method of lines:
//
//  1. recover primitives from the conserved state (package c2p),
//  2. fill ghost zones (package grid),
//  3. per direction, reconstruct primitives at cell faces (package recon)
//     and evaluate a numerical flux at every face (package riemann),
//  4. accumulate flux differences into the right-hand side, and
//  5. advance in time with a strong-stability-preserving Runge–Kutta
//     integrator under a CFL-limited step.
//
// The RHS is decomposed into pencil tiles: blocks of the (j, k) plane
// spanning the full x extent, each accumulating its x, y and z flux
// divergences in one cache-resident pass (tiles.go). Tiles are the only
// scheduling unit: the shared-memory path dispatches tile ranges onto the
// par.Pool, the heterogeneous path (package hetero) dispatches them onto
// devices through Config.TileExec, and the distributed path (package
// cluster) runs the same solver per rank on its subdomain. TileZones
// exposes exactly this decomposition.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"rhsc/internal/c2p"
	"rhsc/internal/eos"
	"rhsc/internal/grid"
	"rhsc/internal/par"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
)

// Integrator selects the SSP Runge–Kutta time integrator.
type Integrator int

// Supported integrators.
const (
	RK1 Integrator = iota + 1 // forward Euler
	RK2                       // SSP RK2 (Heun)
	RK3                       // SSP RK3 (Shu–Osher)
)

// String implements fmt.Stringer.
func (in Integrator) String() string {
	switch in {
	case RK1:
		return "rk1"
	case RK2:
		return "rk2"
	case RK3:
		return "rk3"
	}
	return fmt.Sprintf("Integrator(%d)", int(in))
}

// Stages returns the number of RHS evaluations per step.
func (in Integrator) Stages() int { return int(in) }

// Config assembles the numerical method.
type Config struct {
	EOS        eos.EOS
	Recon      recon.Scheme
	Riemann    riemann.Solver
	Integrator Integrator
	// CFL is the Courant factor; stability requires CFL ≤ 1 in 1-D and
	// CFL ≤ 1/dim for the unsplit multidimensional update.
	CFL float64
	// Pool runs tiles concurrently; nil runs serially.
	Pool *par.Pool
	// Fused selects nothing: every configuration runs the one face-flux
	// kernel (flux.go). The field remains only because bench/, which a
	// kernel change may not edit, still sets it.
	Fused bool
	// TileJ and TileK set the pencil-tile extents (in cells along y and z)
	// of the cache-blocked fused-direction traversal; zero selects the
	// default. Tile sizes need not divide the grid — edge tiles shrink.
	// The tile size never changes results, only cache behaviour.
	TileJ, TileK int
	// TileExec, when non-nil, replaces the default pool execution of the
	// tile sweeps: it must invoke run over disjoint subranges covering
	// [0, nTiles) and return only when all tiles are done. Package hetero
	// uses this hook to dispatch tiles onto modelled devices.
	TileExec func(nTiles int, run func(lo, hi int))
	// HaloExchange, when non-nil, is called after every primitive
	// recovery (once per RK stage) with the freshly recovered primitive
	// field, so a distributed driver can fill ghost faces marked
	// grid.External with neighbouring ranks' data. Package cluster uses
	// this hook, and rejects FailSafe, so the hook never runs alongside
	// the fail-safe repair.
	HaloExchange func(w *state.Fields)
	// StrictChecks validates every RK stage: a full-interior NaN/Inf and
	// D/tau positivity scan of the conserved field, plus the stage's
	// count of c2p atmosphere resets, any of which is a fault (the
	// recovery rewrites failed cells, so the count is the only trace of a
	// failed inversion). A violation aborts the step with a *StateError,
	// leaving the state mid-update; callers that enable it must be
	// prepared to restore a snapshot on error — package resilience does
	// exactly that. Off by default: the unguarded path keeps the cheap
	// strided probe.
	StrictChecks bool
	// FailSafe enables the a posteriori subcell fail-safe pipeline: after
	// every candidate RK stage a detector flags troubled cells (NaN/Inf,
	// D<=0, tau<=0, failed c2p inversion, relaxed-admissibility rho/P
	// jumps) and the solver re-updates only those cells with first-order
	// PCM+HLL fluxes, replacing the troubled faces' fluxes on both sides
	// so conservation stays exact (see docs/RESILIENCE.md). A stage with
	// zero troubled cells is bitwise identical to the plain pipeline.
	FailSafe bool
	// FailSafeRelax scales the relaxed discrete-maximum-principle bound of
	// the detector: a candidate rho or P outside the pre-stage face
	// neighbourhood's [min, max] widened by Relax*(max-min) plus a 1e-3
	// relative cushion is troubled. Zero selects the default 1.0.
	FailSafeRelax float64
	// FailSafeMaxFrac, when positive, demotes the stage to a hard
	// *StateError (for the caller's global retry) when the troubled
	// fraction of interior cells exceeds it — a failure that widespread is
	// not local. Zero never demotes on fraction.
	FailSafeMaxFrac float64
	// FaultHook, when non-nil, is called after every candidate RK stage
	// update with the stage index and the conserved field, before any
	// validation or fail-safe detection. Deterministic fault injectors use
	// it to corrupt the in-flight stage (package resilience).
	FaultHook func(stage int, u *state.Fields)
}

// DefaultConfig returns the configuration used throughout the paper's
// experiments unless stated otherwise: Γ = 5/3 ideal gas, PLM-MC
// reconstruction, HLLC fluxes, SSP RK2, CFL 0.4.
func DefaultConfig() Config {
	return Config{
		EOS:        eos.NewIdealGas(5.0 / 3.0),
		Recon:      recon.PLM{Lim: recon.MonotonizedCentral},
		Riemann:    riemann.HLLC{},
		Integrator: RK2,
		CFL:        0.4,
	}
}

// Stats counts solver work, updated atomically.
type Stats struct {
	Steps       atomic.Int64 // completed time steps
	RHSEvals    atomic.Int64 // right-hand-side evaluations
	ZoneUpdates atomic.Int64 // interior zones × RHS evaluations
	C2PResets   atomic.Int64 // cells reset to atmosphere during recovery
	Troubled    atomic.Int64 // cells flagged by the fail-safe detector
	Repaired    atomic.Int64 // flagged cells re-updated by the local repair
}

// Solver advances one grid in time.
type Solver struct {
	G   *grid.Grid
	Cfg Config
	C2P *c2p.Solver
	St  Stats

	t       float64
	rhs     *state.Fields
	u0      *state.Fields    // RK stage-zero storage
	self    []*Solver        // the one-solver set Step hands to StepSolvers
	hooks   StepHooks        // demote and recoverStage, bound once
	scratch chan *rowScratch // free list of face-block scratch buffers
	mon     *Monitor
	m, low  method       // Cfg's method and its PCM+HLL fallback (see resolveMethod)
	trc     *tracerState // passive scalar; nil when disabled

	// Pre-bound chunk bodies for parallelFor. A closure literal passed to
	// the pool escapes and would be heap-allocated at every call site;
	// binding them once here keeps the steady-state step allocation-free.
	// curRHS is the per-call parameter the tile body reads; it is written
	// before the parallel region starts and is read-only inside it.
	recoverChunk func(lo, hi int)
	cflChunk     func(lo, hi int)
	curRHS       *state.Fields
	recAccum     bool
	recResets    atomic.Int64
	recFlagging  bool // recovery flags failures instead of resetting (fail-safe)
	recMu        sync.Mutex
	recFirstIdx  int // flat index of the lowest failed inversion, -1 if none
	recFirstCons state.Cons

	// Fail-safe pipeline state (Config.FailSafe; see failsafe.go). All
	// buffers are allocated once so the zero-troubled steady state stays
	// allocation-free.
	fsMask                  []uint8       // troubled-cell mask, full grid layout
	fsTouched               []uint8       // cells whose U the repair rewrote
	fsU                     *state.Fields // pre-stage conserved snapshot
	fsW                     *state.Fields // pre-stage primitive snapshot
	fsStrides               []int         // flat-index strides of the active dims (DMP neighbourhood)
	fsScanChunk, fsDMPChunk func(lo, hi int)
	fsCount                 atomic.Int64

	// In-pass CFL reduction state: RecoverPrimitives, when armed via
	// cflAccum (Step arms its final stage), folds the per-row max signal
	// speed into cflRows while the freshly recovered primitives are still
	// in cache, and MaxDt becomes a cheap combine. cflValid is cleared by
	// anything that rewrites W (an unarmed recovery, InvalidateCFL) and
	// MaxDt falls back to a full traversal.
	cflRows  []float64
	cflMax   float64
	cflValid bool
	cflAccum bool

	// Cache-blocked tile engine state (see tiles.go): the precomputed
	// pencil-tile schedule over the (j, k) plane, the resolved tile
	// extents, and the pre-bound parallel chunk body.
	tiles        []grid.Tile
	tileJ, tileK int
	tileChunk    func(lo, hi int)
}

// rowScratch holds one face block's working set (flux.go): face slots
// for an x row or a face plane, and evaluated face slabs for an x row's
// faces.
type rowScratch struct {
	fl [state.NComp][]float64 // reconstructed left face states
	fr [state.NComp][]float64 // reconstructed right face states
	fx [state.NComp][]float64 // face fluxes
	l  riemann.Faces          // evaluated left face states
	r  riemann.Faces          // evaluated right face states
}

// newRowScratch allocates scratch of slots face slots and faces
// evaluated faces.
func newRowScratch(slots, faces int) *rowScratch {
	rs := &rowScratch{}
	for c := range rs.fl {
		rs.fl[c] = make([]float64, slots)
		rs.fr[c] = make([]float64, slots)
		rs.fx[c] = make([]float64, slots)
	}
	slabs := make([]float64, 2*riemann.NSlab*faces)
	rs.l = riemann.NewFaces(slabs[:riemann.NSlab*faces], faces)
	rs.r = riemann.NewFaces(slabs[riemann.NSlab*faces:], faces)
	return rs
}

// New constructs a solver for grid g. The grid's ghost width must cover
// the reconstruction stencil.
func New(g *grid.Grid, cfg Config) (*Solver, error) {
	if cfg.EOS == nil || cfg.Recon == nil || cfg.Riemann == nil {
		return nil, errors.New("core: Config needs EOS, Recon and Riemann")
	}
	if cfg.Integrator < RK1 || cfg.Integrator > RK3 {
		return nil, fmt.Errorf("core: unknown integrator %d", cfg.Integrator)
	}
	if cfg.CFL <= 0 || cfg.CFL > 1 {
		return nil, fmt.Errorf("core: CFL %v outside (0,1]", cfg.CFL)
	}
	if need := cfg.Recon.Ghost(); g.Ng < need {
		return nil, fmt.Errorf("core: grid ghost width %d < %d required by %s",
			g.Ng, need, cfg.Recon.Name())
	}
	if cfg.TileJ < 0 || cfg.TileK < 0 {
		return nil, fmt.Errorf("core: negative tile size %dx%d", cfg.TileJ, cfg.TileK)
	}
	cs := c2p.NewSolver(cfg.EOS)
	s := &Solver{
		G:   g,
		Cfg: cfg,
		C2P: cs,
		rhs: state.NewFields(g.NCells()),
		u0:  state.NewFields(g.NCells()),
	}
	// Scratch free list. Unlike sync.Pool the channel is immune to GC
	// eviction, so once the list is warm the steady-state step allocates
	// nothing. The capacity covers the maximum number of concurrently
	// running tile chunks (pool slots plus the caller, plus headroom for
	// hetero device executors); a get on an empty list allocates and a put
	// on a full list drops, so capacity is a performance bound, never a
	// correctness one.
	capHint := 4
	if cfg.Pool != nil {
		capHint = cfg.Pool.Size() + 2
	}
	if n := runtime.NumCPU() + 4; n > capHint {
		capHint = n
	}
	s.scratch = make(chan *rowScratch, capHint)
	s.cflRows = make([]float64, (g.JEnd()-g.JBeg())*(g.KEnd()-g.KBeg()))
	s.recoverChunk = func(lo, hi int) {
		gr := s.G
		ny := gr.JEnd() - gr.JBeg()
		n := 0
		firstIdx := -1
		var firstCons state.Cons
		mask := s.fsMask
		reset := true
		if s.recFlagging {
			reset = false
		} else {
			mask = nil
		}
		for r := lo; r < hi; r++ {
			j := gr.JBeg() + r%ny
			k := gr.KBeg() + r/ny
			row := (k*gr.TotalY + j) * gr.TotalX
			res := s.C2P.RecoverRangeEx(gr.U, gr.W, row+gr.IBeg(), row+gr.IEnd(), mask, reset)
			if res.Failures > 0 {
				n += res.Failures
				if firstIdx < 0 || res.FirstIdx < firstIdx {
					firstIdx, firstCons = res.FirstIdx, res.FirstCons
				}
			}
			if s.recAccum {
				s.cflRows[r] = s.rowCFL(row)
			}
		}
		if n > 0 {
			s.recResets.Add(int64(n))
			s.recMu.Lock()
			if s.recFirstIdx < 0 || firstIdx < s.recFirstIdx {
				s.recFirstIdx, s.recFirstCons = firstIdx, firstCons
			}
			s.recMu.Unlock()
		}
	}
	s.cflChunk = func(lo, hi int) {
		gr := s.G
		ny := gr.JEnd() - gr.JBeg()
		for r := lo; r < hi; r++ {
			j := gr.JBeg() + r%ny
			k := gr.KBeg() + r/ny
			s.cflRows[r] = s.rowCFL((k*gr.TotalY + j) * gr.TotalX)
		}
	}
	s.self = []*Solver{s}
	s.hooks = StepHooks{Masks: s.demote, Halos: s.recoverStage}
	s.initTiles()
	s.resolveMethod()
	return s, nil
}

// newScratch allocates the scratch of one face block: the slots of an x
// row (Nx+2 cells, whose right edges start one slot on) or of a tile's
// face plane, and the evaluated faces of an x row.
func (s *Solver) newScratch() *rowScratch {
	return newRowScratch(s.G.BlockSlots(s.tileJ, s.tileK), s.G.Nx+1)
}

func (s *Solver) getScratch() *rowScratch {
	select {
	case sc := <-s.scratch:
		return sc
	default:
		return s.newScratch()
	}
}

func (s *Solver) putScratch(sc *rowScratch) {
	select {
	case s.scratch <- sc:
	default:
	}
}

// Time returns the current solution time.
func (s *Solver) Time() float64 { return s.t }

// SetTime overrides the solution clock (used when restoring checkpoints).
func (s *Solver) SetTime(t float64) { s.t = t }

// InitFromPrim fills the grid from a primitive-state function of position
// and synchronises the conserved variables. An unphysical initial state
// (negative density or pressure, superluminal velocity) aborts the fill
// with an error and leaves the grid partially initialised.
func (s *Solver) InitFromPrim(fn func(x, y, z float64) state.Prim) error {
	g := s.G
	var initErr error
	g.ForEachInterior(func(idx, i, j, k int) {
		if initErr != nil {
			return
		}
		w := fn(g.X(i), g.Y(j), g.Z(k))
		if !w.IsPhysical() {
			initErr = fmt.Errorf("core: unphysical initial state %+v at (%d,%d,%d)", w, i, j, k)
			return
		}
		g.W.SetPrim(idx, w)
		g.U.SetCons(idx, w.ToCons(s.Cfg.EOS))
	})
	if initErr != nil {
		return initErr
	}
	g.ApplyBCs(g.W)
	g.ApplyBCs(g.U)
	s.cflValid = false
	return nil
}

// parallelFor runs fn over [0,n) work items, using the pool when configured.
func (s *Solver) parallelFor(n int, fn func(lo, hi int)) {
	if s.Cfg.Pool == nil {
		fn(0, n)
		return
	}
	s.Cfg.Pool.ParallelFor(0, n, 0, fn)
}

// RecoverPrimitives inverts the conserved state into s.G.W over the whole
// interior and applies boundary conditions to the primitives. It returns
// the number of atmosphere resets.
//
// When the in-pass CFL reduction is armed (AccumulateCFLNext, or the
// final stage of Step), the per-row max signal speed is folded into the
// same traversal — the freshly recovered primitives are still in cache —
// and the following MaxDt becomes a cheap combine. An unarmed call
// invalidates the cache instead: it rewrote W, so a cached reduction
// would be stale.
func (s *Solver) RecoverPrimitives() int {
	return s.recoverPrims(false)
}

// recoverPrims is RecoverPrimitives with an optional flagging mode: the
// fail-safe detector recovers with failures marking s.fsMask and leaving
// the conserved state untouched (the repair recomputes those cells from
// pre-stage data), instead of the default atmosphere reset.
func (s *Solver) recoverPrims(flagging bool) int {
	g := s.G
	ny := g.JEnd() - g.JBeg()
	nz := g.KEnd() - g.KBeg()
	accum := s.cflAccum
	s.cflAccum = false
	s.cflValid = false
	s.recAccum = accum
	s.recFlagging = flagging
	s.recResets.Store(0)
	s.recFirstIdx = -1
	s.parallelFor(ny*nz, s.recoverChunk)
	s.recFlagging = false
	if accum {
		s.cflMax = s.combineCFL()
		s.cflValid = true
	}
	g.ApplyBCs(g.W)
	if s.Cfg.HaloExchange != nil {
		s.Cfg.HaloExchange(g.W)
	}
	if s.trc != nil {
		s.tracerRecover()
	}
	r := int(s.recResets.Load())
	if !flagging {
		s.St.C2PResets.Add(int64(r))
	}
	return r
}

// AccumulateCFLNext arms the next RecoverPrimitives call to fuse the CFL
// reduction into its recovery pass. Drivers that manage recovery
// themselves (the AMR trees) arm the final recovery of each step so their
// MaxDt queries hit the cache.
func (s *Solver) AccumulateCFLNext() { s.cflAccum = true }

// InvalidateCFL discards the cached CFL reduction. Callers that rewrite
// the primitive field directly — restoring a snapshot, installing
// migrated or checkpointed blocks — must invalidate, or the next MaxDt
// would reflect the overwritten state. Recovery passes handle their own
// bookkeeping; this is only for raw writes that bypass them.
func (s *Solver) InvalidateCFL() { s.cflValid = false }

// combineCFL reduces the per-row maxima exactly as the standalone
// traversal in MaxDt always has: a serial max in row order, so the result
// is bitwise identical however the rows were produced.
func (s *Solver) combineCFL() float64 {
	maxSum := 0.0
	for _, v := range s.cflRows {
		if v > maxSum {
			maxSum = v
		}
	}
	return maxSum
}

// rowCFL returns the row's max over cells of Σ_d λ_max/dx_d — the CFL
// reduction unit shared by the in-pass accumulation and the fallback
// traversal, so the two are bitwise identical by construction. c_s² is
// direction-independent, so it is evaluated once per cell (inlined for the
// Γ-law gas, one EOS call otherwise), and so are the parts of
// state.SignalSpeeds that do not involve v_d — 1 − v², 1 − v²c_s²,
// 1 − c_s² and c_s — which speed combines per direction with the same
// operations: bitwise what state.SignalSpeeds recomputes per direction.
func (s *Solver) rowCFL(row int) float64 {
	g := s.G
	m := &s.m
	w := g.W
	rhoC, vxC, vyC, vzC, pC := w.Comp[state.IRho], w.Comp[state.IVx],
		w.Comp[state.IVy], w.Comp[state.IVz], w.Comp[state.IP]
	hasY, hasZ := g.Ny > 1, g.Nz > 1
	rowMax := 0.0
	for i := g.IBeg(); i < g.IEnd(); i++ {
		idx := row + i
		rho, vx, vy, vz, p := rhoC[idx], vxC[idx], vyC[idx], vzC[idx], pC[idx]
		v2 := vx*vx + vy*vy + vz*vz
		var cs2 float64
		if m.ideal {
			cs2 = m.gas.SoundSpeed2(rho, p)
		} else {
			cs2 = m.eos.SoundSpeed2(rho, p)
		}
		omv2, den, omc, cs := 1-v2, 1-v2*cs2, 1-cs2, math.Sqrt(cs2)
		speed := func(vd float64) float64 {
			disc := omv2 * (den - vd*vd*omc)
			if disc < 0 {
				disc = 0
			}
			root := math.Sqrt(disc) * cs
			return max(math.Abs((vd*omc-root)/den), math.Abs((vd*omc+root)/den))
		}
		sum := speed(vx) / g.Dx
		if hasY {
			sum += speed(vy) / g.Dy
		}
		if hasZ {
			sum += speed(vz) / g.Dz
		}
		if sum > rowMax {
			rowMax = sum
		}
	}
	return rowMax
}

// ComputeRHS evaluates the full right-hand side into rhs. Primitives and
// their ghosts must be current (call RecoverPrimitives first).
//
// The traversal is the cache-blocked tile engine (tiles.go): one fused
// pass over pencil tiles of the (j, k) plane, each tile accumulating its
// x, y and z flux divergences while its working set is cache resident.
// Tile ranges run on the pool, or on whatever Config.TileExec dispatches
// them to (the hetero device hook).
//
// The sweeps write every interior cell (the first direction overwrites,
// the rest accumulate) and never touch ghost cells, so rhs ghost entries
// keep whatever value they had — zero for any Fields that has only ever
// been used as an RHS, exactly as the former full-field Zero() left them.
func (s *Solver) ComputeRHS(rhs *state.Fields) {
	if s.trc != nil {
		zeroScalar(s.trc.rhs)
	}
	s.curRHS = rhs
	if s.Cfg.TileExec != nil {
		s.Cfg.TileExec(len(s.tiles), s.tileChunk)
	} else {
		s.parallelFor(len(s.tiles), s.tileChunk)
	}
	s.St.RHSEvals.Add(1)
	s.St.ZoneUpdates.Add(int64(s.G.Nx * s.G.Ny * s.G.Nz))
}

// MaxDt returns the CFL-limited time step for the current state. In the
// steady-state loop the reduction was already folded into the final
// recovery of the previous Step and this is a cached combine; the first
// call (and any call after a state rewrite, see InvalidateCFL) performs
// the full traversal into the solver-owned cflRows scratch.
func (s *Solver) MaxDt() float64 {
	if !s.cflValid {
		s.parallelFor(len(s.cflRows), s.cflChunk)
		s.cflMax = s.combineCFL()
		s.cflValid = true
	}
	maxSum := s.cflMax
	if maxSum <= 0 {
		// Degenerate (cold static) state: fall back to light-crossing time.
		maxSum = 1 / s.G.Dx
	}
	return s.Cfg.CFL / maxSum
}

// ErrNonFinite is returned by Step when the update produced NaN or Inf.
var ErrNonFinite = errors.New("core: non-finite state after step")

// Step advances the solution by dt with the configured SSP-RK integrator:
// StepSolvers over the one solver, whose hooks are the fail-safe fraction
// demotion and the stage's recovery.
//
// Invariant: on entry and on return the primitive field s.G.W (including
// ghosts) is consistent with the conserved field s.G.U. InitFromPrim
// establishes it; callers that fill U by hand must call
// RecoverPrimitives once before stepping.
//
// When Config.StrictChecks is set and a stage produces an inadmissible
// state, Step returns a *StateError with the update incomplete: U and W
// then hold the partial stage result, and the caller must restore a
// snapshot (see package resilience) before stepping again.
func (s *Solver) Step(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("core: non-positive dt %v", dt)
	}
	if s.Cfg.FailSafe && s.trc != nil {
		return errors.New("core: FailSafe does not support the passive tracer")
	}
	tally, err := StepSolvers(&s.Cfg, s.self, dt, s.hooks)
	s.St.Troubled.Add(tally.Troubled)
	s.St.Repaired.Add(tally.Repaired)
	if err != nil {
		return err
	}

	// Cheap finiteness probe on a stride through the data; a full scan
	// every step would cost a noticeable fraction of the RHS. Strict
	// checks already scanned every cell above.
	if !s.Cfg.StrictChecks {
		raw := s.G.U.Raw()
		for i := 0; i < len(raw); i += 97 {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				return ErrNonFinite
			}
		}
	}

	s.t += dt
	steps := s.St.Steps.Add(1)
	if s.mon != nil && (steps == 1 || steps%int64(s.mon.Every) == 0) {
		s.mon.record(s, dt)
	}
	return nil
}

// demote is the single solver's Masks hook: the fail-safe's fraction
// demotion, with nothing else to make current.
func (s *Solver) demote(stage, troubled int) (bool, error) {
	if err := s.Cfg.FailSafeDemotion(stage, troubled, s.G.Nx*s.G.Ny*s.G.Nz); err != nil {
		return false, err
	}
	return troubled > 0, nil
}

// recoverStage is the single solver's Halos hook: the stage's one
// recovery, unless the fail-safe detection already ran it.
func (s *Solver) recoverStage(_ int, recovered bool) error {
	if !recovered {
		s.RecoverPrimitives()
	}
	return nil
}

// Advance integrates until time tEnd, choosing CFL-limited steps and
// clamping the final step to land exactly on tEnd. It returns the number
// of steps taken.
func (s *Solver) Advance(tEnd float64) (int, error) {
	steps := 0
	for s.t < tEnd-1e-14 {
		// Primitives must be current for the CFL estimate on the first
		// step; RecoverPrimitives is idempotent.
		if steps == 0 {
			s.RecoverPrimitives()
		}
		dt := s.MaxDt()
		if s.t+dt > tEnd {
			dt = tEnd - s.t
		}
		if dt <= 0 {
			return steps, fmt.Errorf("core: time step underflow at t=%v", s.t)
		}
		if err := s.Step(dt); err != nil {
			return steps, fmt.Errorf("core: step %d at t=%v: %w", steps, s.t, err)
		}
		steps++
		if steps > 10_000_000 {
			return steps, errors.New("core: step budget exhausted")
		}
	}
	return steps, nil
}
