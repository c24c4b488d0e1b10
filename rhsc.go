// Package rhsc is a scalable special-relativistic high-resolution
// shock-capturing (HRSC) hydrodynamics framework for heterogeneous
// computing, reproducing Glines, Anderson & Neilsen (IEEE CLUSTER 2015).
//
// The package is a façade over the engine packages:
//
//   - a finite-volume SRHD solver (reconstruction × Riemann solver ×
//     SSP-RK integrator) on uniform 1/2/3-D grids,
//   - block-structured adaptive mesh refinement,
//   - a heterogeneous device model with static/dynamic tile scheduling,
//   - a distributed (rank-decomposed) driver with sync/async halo
//     exchange and a virtual network model, and
//   - the exact SRHD Riemann solver for validation.
//
// A minimal run:
//
//	sim, err := rhsc.NewSim(rhsc.Options{Problem: "sod", N: 400})
//	if err != nil { ... }
//	err = sim.Run()
//	sim.WriteProfile(os.Stdout)
package rhsc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"time"

	"rhsc/internal/amr"
	"rhsc/internal/cluster"
	"rhsc/internal/core"
	"rhsc/internal/eos"
	"rhsc/internal/exact"
	"rhsc/internal/grid"
	"rhsc/internal/hetero"
	"rhsc/internal/metrics"
	"rhsc/internal/newton"
	"rhsc/internal/output"
	"rhsc/internal/par"
	"rhsc/internal/recon"
	"rhsc/internal/resilience"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// Version identifies the library release.
const Version = "1.0.0"

// Prim is the primitive hydrodynamic state (ρ, v, p) of one cell.
type Prim = state.Prim

// Cons is the conserved state (D, S, τ) of one cell.
type Cons = state.Cons

// Options selects a catalogued problem and the numerical method. Zero
// fields take the documented defaults.
type Options struct {
	// Problem is a name from Problems() — e.g. "sod", "blast", "blast2d",
	// "kh2d", "smooth-wave", "shock-heating", "implosion2d".
	Problem string
	// N is the number of cells along x (2-D problems scale y by the
	// domain aspect). Default 256.
	N int
	// Recon names the reconstruction: "pcm", "plm" (default, MC limiter),
	// "plm-minmod", "plm-vanleer", "ppm", "weno5", "wenoz".
	Recon string
	// Riemann names the flux: "llf", "hll", "hllc" (default).
	Riemann string
	// Integrator is "rk1", "rk2" (default) or "rk3".
	Integrator string
	// CFL is the Courant factor (default 0.4).
	CFL float64
	// Threads > 1 runs tile sweeps on a pool of that many workers;
	// 0 or 1 runs serially.
	Threads int
	// Gamma overrides the problem's adiabatic index when > 0.
	Gamma float64
	// TaubMathews selects the TM equation of state instead of the Γ-law.
	TaubMathews bool
	// HybridK > 0 selects the hybrid (cold polytrope + thermal Γ-law)
	// EOS with cold constant HybridK, cold exponent HybridGammaC and the
	// thermal index from Gamma (or the problem default).
	HybridK      float64
	HybridGammaC float64
}

// buildConfig resolves Options into a core configuration plus the problem.
func buildConfig(o Options) (*testprob.Problem, core.Config, error) {
	name := o.Problem
	if name == "" {
		name = "sod"
	}
	p, err := testprob.ByName(name)
	if err != nil {
		return nil, core.Config{}, err
	}
	cfg := core.DefaultConfig()

	gamma := p.Gamma
	if o.Gamma > 0 {
		gamma = o.Gamma
	}
	switch {
	case o.TaubMathews:
		cfg.EOS = eos.TaubMathews{}
	case o.HybridK > 0:
		gc := o.HybridGammaC
		if gc <= 1 {
			gc = 2
		}
		cfg.EOS = eos.NewHybrid(o.HybridK, gc, gamma)
	default:
		cfg.EOS = eos.NewIdealGas(gamma)
	}
	if o.Recon != "" {
		r, err := recon.ByName(o.Recon)
		if err != nil {
			return nil, core.Config{}, err
		}
		cfg.Recon = r
	}
	if o.Riemann != "" {
		r, err := riemann.ByName(o.Riemann)
		if err != nil {
			return nil, core.Config{}, err
		}
		cfg.Riemann = r
	}
	switch o.Integrator {
	case "":
	case "rk1":
		cfg.Integrator = core.RK1
	case "rk2":
		cfg.Integrator = core.RK2
	case "rk3":
		cfg.Integrator = core.RK3
	default:
		return nil, core.Config{}, fmt.Errorf("rhsc: unknown integrator %q", o.Integrator)
	}
	if o.CFL > 0 {
		cfg.CFL = o.CFL
	}
	if o.Threads > 1 {
		cfg.Pool = par.NewPool(o.Threads)
	}
	return p, cfg, nil
}

// Problems lists the catalogued problem names.
func Problems() []string { return testprob.Names() }

// CheckOptions validates the options without allocating a grid: the
// problem name, scheme names and integrator are resolved exactly as
// NewSim would. The job server uses it for admission-time validation of
// queued specs whose grids are only built at dispatch.
func CheckOptions(o Options) error {
	_, _, err := buildConfig(o)
	return err
}

// Sim is a single-grid simulation.
type Sim struct {
	Problem *testprob.Problem
	Solver  *core.Solver
	Grid    *grid.Grid

	opts Options
}

// NewSim builds a simulation from options and imposes the initial
// condition.
func NewSim(o Options) (*Sim, error) {
	p, cfg, err := buildConfig(o)
	if err != nil {
		return nil, err
	}
	n := o.N
	if n <= 0 {
		n = 256
	}
	g := p.NewGrid(n, cfg.Recon.Ghost())
	s, err := core.New(g, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.InitFromPrim(p.Init); err != nil {
		return nil, err
	}
	return &Sim{Problem: p, Solver: s, Grid: g, opts: o}, nil
}

// Run advances to the problem's canonical end time.
func (s *Sim) Run() error { return s.RunTo(s.Problem.TEnd) }

// RunTo advances to the given time.
func (s *Sim) RunTo(t float64) error {
	_, err := s.Solver.Advance(t)
	return err
}

// Step advances a single CFL-limited step and returns the dt used.
func (s *Sim) Step() (float64, error) {
	dt := s.Solver.MaxDt()
	return dt, s.Solver.Step(dt)
}

// Time returns the current solution time.
func (s *Sim) Time() float64 { return s.Solver.Time() }

// At returns the primitive state at the cell nearest to (x, y).
func (s *Sim) At(x, y float64) Prim {
	return s.Grid.W.GetPrim(nearestCell(s.Grid, x, y))
}

// nearestCell returns the index of the interior cell nearest (x, y) on
// the first k plane; points outside the domain clamp to its edge cells.
func nearestCell(g *grid.Grid, x, y float64) int {
	i := min(max(g.IBeg()+int((x-g.X0)/g.Dx), g.IBeg()), g.IEnd()-1)
	j := g.JBeg()
	if g.Ny > 1 {
		j = min(max(g.JBeg()+int((y-g.Y0)/g.Dy), g.JBeg()), g.JEnd()-1)
	}
	return g.Idx(i, j, g.KBeg())
}

// WriteProfile writes the 1-D primitive profile as CSV.
func (s *Sim) WriteProfile(w io.Writer) error { return output.WriteProfileCSV(w, s.Grid) }

// WriteSlab writes the 2-D slab as CSV.
func (s *Sim) WriteSlab(w io.Writer) error { return output.WriteSlabCSV(w, s.Grid) }

// Checkpoint writes a restartable snapshot (conserved state only; a
// restore re-derives primitives, so the restarted run is accurate but
// not bit-identical). Use CheckpointExact for exact continuation.
func (s *Sim) Checkpoint(w io.Writer) error {
	return output.SaveCheckpoint(w, s.Grid, s.Solver.Time())
}

// CheckpointExact writes a snapshot carrying both conserved and
// primitive fields (ghosts included): Restore continues the run
// bit-identically to the uninterrupted one — the property the job
// server's checkpoint-based preemption relies on.
func (s *Sim) CheckpointExact(w io.Writer) error {
	return output.SaveCheckpointExact(w, s.Grid, s.Solver.Time())
}

// Restore rebuilds a Sim from a checkpoint written by Checkpoint or
// CheckpointExact. The options must name the same problem and method.
// Exact checkpoints restore the primitive field bitwise and skip
// re-recovery, so the resumed run continues round-off-exactly.
func Restore(r io.Reader, o Options) (*Sim, error) {
	p, cfg, err := buildConfig(o)
	if err != nil {
		return nil, err
	}
	g, t, prims, err := output.LoadCheckpointFull(r)
	if err != nil {
		return nil, err
	}
	// A checkpoint keeps the face kinds but not a Custom face's hook: the
	// faces come from the problem, as in NewSim.
	p.SetFaces(g, [3]int{}, [3]int{1, 1, 1})
	s, err := core.New(g, cfg)
	if err != nil {
		return nil, err
	}
	s.SetTime(t)
	if !prims {
		s.RecoverPrimitives()
	}
	return &Sim{Problem: p, Solver: s, Grid: g, opts: o}, nil
}

// Mass returns the conserved total rest mass.
func (s *Sim) Mass() float64 { return s.Grid.TotalMass() }

// EnableTracer activates a passive composition scalar X(x,y,z) (electron
// fraction, metallicity, dye, …) advected with the fluid; call after
// NewSim and before stepping.
func (s *Sim) EnableTracer(fn func(x, y, z float64) float64) error {
	return s.Solver.EnableTracer(fn)
}

// TracerAt returns the tracer concentration at the cell nearest (x, y);
// zero when no tracer is enabled.
func (s *Sim) TracerAt(x, y float64) float64 {
	return s.Solver.Tracer(nearestCell(s.Grid, x, y))
}

// WriteVTK writes the current primitive fields as a legacy VTK dataset
// (ParaView/VisIt-readable).
func (s *Sim) WriteVTK(w io.Writer, title string) error {
	return output.WriteVTK(w, s.Grid, title)
}

// WritePNG renders the density of the 2-D slab as a PNG heatmap; set log
// to map through log10 first (blast waves, jets), and scale to enlarge
// cells to scale×scale pixels.
func (s *Sim) WritePNG(w io.Writer, logScale bool, scale int) error {
	return output.WritePNG(w, s.Grid, output.PNGOptions{
		Comp: state.IRho, Log: logScale, Scale: scale,
	})
}

// Monitor re-exports the run-time diagnostics recorder.
type Monitor = core.Monitor

// DiagRow re-exports one diagnostics sample.
type DiagRow = core.DiagRow

// AttachMonitor records diagnostics (conserved totals, max Lorentz
// factor, c2p resets) every n accepted steps; it returns the monitor for
// later inspection or CSV dumping.
func (s *Sim) AttachMonitor(n int) *Monitor {
	m := core.NewMonitor(n)
	s.Solver.AttachMonitor(m)
	return m
}

// ZoneUpdates returns the cumulative zones × RHS evaluations.
func (s *Sim) ZoneUpdates() int64 { return s.Solver.St.ZoneUpdates.Load() }

// ExactSod solves the 1-D Riemann problem (ρ,v,p) L/R exactly and returns
// a sampler of the density profile at time t with the jump at x0:
// rho(x) = sampler(x).
func ExactSod(rhoL, vL, pL, rhoR, vR, pR, gamma, x0, t float64) (func(x float64) Prim, error) {
	sol, err := exact.Solve(
		exact.State{Rho: rhoL, V: vL, P: pL},
		exact.State{Rho: rhoR, V: vR, P: pR}, gamma)
	if err != nil {
		return nil, err
	}
	return func(x float64) Prim {
		if t <= 0 {
			if x < x0 {
				return Prim{Rho: rhoL, Vx: vL, P: pL}
			}
			return Prim{Rho: rhoR, Vx: vR, P: pR}
		}
		st := sol.Sample((x - x0) / t)
		return Prim{Rho: st.Rho, Vx: st.V, P: st.P}
	}, nil
}

// ExactSodVt solves the 1-D Riemann problem with transverse velocities
// exactly (Pons–Martí–Müller class) and returns a profile sampler: the
// returned Prim carries the transverse velocity in Vy.
func ExactSodVt(left, right Prim, gamma, x0, t float64) (func(x float64) Prim, error) {
	sol, err := exact.SolveVt(
		exact.State2{Rho: left.Rho, Vx: left.Vx, Vt: left.Vy, P: left.P},
		exact.State2{Rho: right.Rho, Vx: right.Vx, Vt: right.Vy, P: right.P}, gamma)
	if err != nil {
		return nil, err
	}
	return func(x float64) Prim {
		if t <= 0 {
			if x < x0 {
				return left
			}
			return right
		}
		st := sol.Sample((x - x0) / t)
		return Prim{Rho: st.Rho, Vx: st.Vx, Vy: st.Vt, P: st.P}
	}, nil
}

// --- Heterogeneous execution -------------------------------------------

// Device re-exports the heterogeneous device model.
type Device = hetero.Device

// DeviceSpec re-exports the device performance spec.
type DeviceSpec = hetero.Spec

// Device presets and policies.
func HostCPU(cores int) DeviceSpec { return hetero.SpecHostCPU(cores) }
func GPU() DeviceSpec              { return hetero.SpecK20GPU() }
func StagedGPU() DeviceSpec        { return hetero.SpecK20GPUStaged() }

// SchedulePolicy selects static or dynamic tile scheduling.
type SchedulePolicy = hetero.Policy

// Scheduling policies.
const (
	StaticSchedule  = hetero.Static
	DynamicSchedule = hetero.Dynamic
)

// HeteroSim couples a Sim to a modelled device set.
type HeteroSim struct {
	*Sim
	Exec *hetero.Executor
}

// NewHeteroSim builds a simulation whose pencil tiles are scheduled over
// the given devices.
func NewHeteroSim(o Options, policy SchedulePolicy, specs ...DeviceSpec) (*HeteroSim, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("rhsc: heterogeneous run needs at least one device")
	}
	sim, err := NewSim(o)
	if err != nil {
		return nil, err
	}
	devs := make([]*hetero.Device, len(specs))
	for i, sp := range specs {
		d, err := hetero.NewDevice(sp)
		if err != nil {
			return nil, err
		}
		devs[i] = d
	}
	ex, err := hetero.NewExecutor(policy, devs...)
	if err != nil {
		return nil, err
	}
	ex.Attach(sim.Solver)
	return &HeteroSim{Sim: sim, Exec: ex}, nil
}

// VirtualSeconds returns the modelled execution time so far.
func (h *HeteroSim) VirtualSeconds() float64 { return h.Exec.VirtualTime() }

// --- Distributed execution ---------------------------------------------

// ClusterOptions configures a distributed run.
type ClusterOptions struct {
	Ranks int
	// Px, Py optionally arrange the ranks in a 2-D process grid
	// (Px·Py = Ranks); zero values select 1-D slabs along x.
	Px, Py int
	// Async overlaps halo exchange with interior computation.
	Async bool
	// Network selects the virtual interconnect: "ideal" (default),
	// "gige", "ib".
	Network string
	// Steps > 0 runs fixed steps instead of the problem end time.
	Steps int
	// TEnd overrides the problem end time when > 0.
	TEnd float64
	// RankRates gives each rank its own modelled throughput (a
	// heterogeneous cluster); WeightedDecomp sizes subdomains
	// proportionally to those rates.
	RankRates      []float64
	WeightedDecomp bool
}

// ClusterResult re-exports the distributed run summary.
type ClusterResult = cluster.Result

// RunCluster executes the problem decomposed over ranks.
func RunCluster(o Options, co ClusterOptions) (*ClusterResult, error) {
	p, cfg, err := buildConfig(o)
	if err != nil {
		return nil, err
	}
	n := o.N
	if n <= 0 {
		n = 256
	}
	var net cluster.NetModel
	switch co.Network {
	case "", "ideal":
	case "gige":
		net = cluster.GigE()
	case "ib":
		net = cluster.Infiniband()
	default:
		return nil, fmt.Errorf("rhsc: unknown network %q", co.Network)
	}
	mode := cluster.Sync
	if co.Async {
		mode = cluster.Async
	}
	return cluster.Run(p, n, cfg, cluster.Options{
		Ranks: co.Ranks, Px: co.Px, Py: co.Py, Mode: mode, Net: net,
		Steps: co.Steps, TEnd: co.TEnd,
		RankRates: co.RankRates, WeightedDecomp: co.WeightedDecomp,
	})
}

// --- Adaptive mesh refinement ------------------------------------------

// AMRSim is an adaptively refined simulation.
type AMRSim struct {
	Problem *testprob.Problem
	Tree    *amr.Tree
}

// AMROptions configures the refinement policy on top of Options.
type AMROptions struct {
	// RootBlocks is the number of root blocks along x (default 8).
	RootBlocks int
	// BlockN is the cells per block side (default 16, must be even).
	BlockN int
	// MaxLevel is the deepest refinement level (default 2).
	MaxLevel int
	// RefineTol / CoarsenTol bound the relative-jump indicator.
	RefineTol  float64
	CoarsenTol float64
}

// NewAMRSim builds an adaptively refined simulation of the problem.
func NewAMRSim(o Options, ao AMROptions) (*AMRSim, error) {
	p, cfg, err := buildConfig(o)
	if err != nil {
		return nil, err
	}
	ac := amr.DefaultConfig(cfg)
	if ao.BlockN > 0 {
		ac.BlockN = ao.BlockN
	}
	if ao.MaxLevel > 0 {
		ac.MaxLevel = ao.MaxLevel
	}
	if ao.RefineTol > 0 {
		ac.RefineTol = ao.RefineTol
	}
	if ao.CoarsenTol > 0 {
		ac.CoarsenTol = ao.CoarsenTol
	}
	nb := ao.RootBlocks
	if nb <= 0 {
		nb = 8
	}
	tr, err := amr.NewTree(p, nb, ac)
	if err != nil {
		return nil, err
	}
	return &AMRSim{Problem: p, Tree: tr}, nil
}

// Run advances the tree to the problem's end time.
func (a *AMRSim) Run() error {
	_, err := a.Tree.Advance(a.Problem.TEnd)
	return err
}

// RunTo advances the tree to time t.
func (a *AMRSim) RunTo(t float64) error {
	_, err := a.Tree.Advance(t)
	return err
}

// At samples the solution at a point on the finest covering block.
func (a *AMRSim) At(x, y float64) Prim { return a.Tree.SampleAt(x, y) }

// Stats summarises the adaptive hierarchy.
func (a *AMRSim) Stats() (leaves, zones int, maxLevel int, zoneUpdates int64) {
	return a.Tree.NumLeaves(), a.Tree.TotalZones(), a.Tree.MaxLevelInUse(), a.Tree.ZoneUpdates()
}

// Checkpoint writes the full hierarchy (structure + conserved data).
func (a *AMRSim) Checkpoint(w io.Writer) error { return a.Tree.Save(w) }

// CheckpointExact writes the hierarchy with both conserved and
// primitive leaf fields, so RestoreAMR continues bit-identically.
func (a *AMRSim) CheckpointExact(w io.Writer) error { return a.Tree.SaveExact(w) }

// RestoreAMR rebuilds an adaptive simulation from a checkpoint written by
// AMRSim.Checkpoint. The numerical method is rebuilt from the options
// (which must use the same reconstruction ghost width).
func RestoreAMR(r io.Reader, o Options) (*AMRSim, error) {
	_, cfg, err := buildConfig(o)
	if err != nil {
		return nil, err
	}
	tr, err := amr.Load(r, cfg)
	if err != nil {
		return nil, err
	}
	return &AMRSim{Problem: tr.Problem(), Tree: tr}, nil
}

// --- Job running (serving layer) -----------------------------------------

// FaultSnapshot re-exports the resilience counters a job reports.
type FaultSnapshot = metrics.FaultSnapshot

// FaultInjection schedules one deterministic state corruption for chaos
// testing a guarded job: at committed step AtStep the conserved energy
// of Cell (negative = domain centre) is poisoned for Count consecutive
// attempts (NaN, or a finite tau<0 when Unphysical). InStage lands the
// poison mid-step through the solver's fault hook instead of after it.
// Step indices are absolute across preemption: a job parked at step 10
// and resumed keeps an AtStep=15 injection scheduled.
type FaultInjection struct {
	AtStep     int
	Count      int
	Cell       int
	Unphysical bool
	InStage    bool
}

// JobRunner is the uniform stepping surface the serving layer drives: a
// serial Sim under a resilience guard, or an AMRSim. One CFL-limited
// step at a time (clamped onto the job's end time), exact checkpoints
// for preemption, and a state fingerprint for round-trip verification.
// Use from one goroutine.
type JobRunner interface {
	// StepOnce advances one CFL-limited step clamped to TEnd and returns
	// the dt committed. Numerical faults in serial jobs are absorbed by
	// the guard (retry with halved dt, dissipative fallback) before an
	// error surfaces.
	StepOnce() (float64, error)
	// Time is the current solution time; TEnd the job's end time.
	Time() float64
	TEnd() float64
	// Steps counts committed steps, continuing across checkpoint/resume
	// (serial runners via SetStepBase, AMR trees persist their counter).
	Steps() int
	// SetStepBase aligns the committed-step counter of a resumed serial
	// runner with the parked run (no-op for AMR).
	SetStepBase(n int)
	// Zones is the current active interior zone count (AMR: over leaves).
	Zones() int
	// ZoneUpdates is the cumulative zones × RHS evaluations.
	ZoneUpdates() int64
	// CheckpointExact writes a snapshot from which ResumeJobRunner
	// continues bit-identically to an uninterrupted run.
	CheckpointExact(w io.Writer) error
	// Fingerprint hashes time and the full conserved + primitive state
	// (FNV-1a); equal fingerprints mean bitwise-identical solutions.
	Fingerprint() uint64
	// FaultStats reports the job's resilience counters (zero for AMR
	// jobs, which do not run under a guard).
	FaultStats() FaultSnapshot
	// InjectFault schedules a deterministic corruption (serial jobs
	// only; an error for AMR runners).
	InjectFault(f FaultInjection) error
	// WriteResult writes the job's deliverable: the primitive profile
	// (1-D) or slab (2-D) as CSV; AMR runners sample a root-resolution
	// centerline profile.
	WriteResult(w io.Writer) error
}

// NewJobRunner builds a runner from options: serial when ao is nil, AMR
// otherwise. tEnd ≤ 0 selects the problem's canonical end time.
func NewJobRunner(o Options, ao *AMROptions, tEnd float64) (JobRunner, error) {
	if ao != nil {
		a, err := NewAMRSim(o, *ao)
		if err != nil {
			return nil, err
		}
		return newAMRRunner(a, tEnd), nil
	}
	sim, err := NewSim(o)
	if err != nil {
		return nil, err
	}
	// Advance's first-step recovery, done once up front so StepOnce is
	// uniform; a resumed runner must NOT repeat it (see ResumeJobRunner).
	sim.Solver.RecoverPrimitives()
	return newSimRunner(sim, tEnd), nil
}

// ResumeJobRunner rebuilds a parked runner from a CheckpointExact
// snapshot; the continued run is bit-identical to one that was never
// parked. amrJob selects the checkpoint format; the options must match
// the parked job's.
func ResumeJobRunner(r io.Reader, o Options, amrJob bool, tEnd float64) (JobRunner, error) {
	if amrJob {
		a, err := RestoreAMR(r, o)
		if err != nil {
			return nil, err
		}
		return newAMRRunner(a, tEnd), nil
	}
	sim, err := Restore(r, o)
	if err != nil {
		return nil, err
	}
	// No recovery here: Restore filled W bit-exactly from the exact
	// checkpoint, and re-recovering would reseed the Newton iteration
	// off the uninterrupted trajectory.
	return newSimRunner(sim, tEnd), nil
}

// hashFloats folds a float64 slice into an FNV-1a digest.
func hashFloats(h io.Writer, vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// simRunner drives a serial Sim under a resilience guard.
type simRunner struct {
	sim   *Sim
	guard *resilience.Guard
	tEnd  float64
}

func newSimRunner(sim *Sim, tEnd float64) *simRunner {
	if tEnd <= 0 {
		tEnd = sim.Problem.TEnd
	}
	return &simRunner{
		sim:   sim,
		guard: resilience.NewGuard(sim.Solver),
		tEnd:  tEnd,
	}
}

func (r *simRunner) StepOnce() (float64, error) {
	s := r.sim.Solver
	dt := s.MaxDt()
	if s.Time()+dt > r.tEnd {
		dt = r.tEnd - s.Time()
	}
	if dt <= 0 {
		return 0, fmt.Errorf("rhsc: time step underflow at t=%v", s.Time())
	}
	return r.guard.Step(dt)
}

func (r *simRunner) Time() float64      { return r.sim.Time() }
func (r *simRunner) TEnd() float64      { return r.tEnd }
func (r *simRunner) Steps() int         { return r.guard.Steps() }
func (r *simRunner) SetStepBase(n int)  { r.guard.SetSteps(n) }
func (r *simRunner) ZoneUpdates() int64 { return r.sim.ZoneUpdates() }
func (r *simRunner) Zones() int {
	g := r.sim.Grid
	return g.Nx * g.Ny * g.Nz
}

func (r *simRunner) CheckpointExact(w io.Writer) error { return r.sim.CheckpointExact(w) }

func (r *simRunner) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.sim.Time()))
	h.Write(buf[:])
	hashFloats(h, r.sim.Grid.U.Raw())
	hashFloats(h, r.sim.Grid.W.Raw())
	return h.Sum64()
}

func (r *simRunner) FaultStats() FaultSnapshot { return r.guard.Stats.Snapshot() }

func (r *simRunner) InjectFault(f FaultInjection) error {
	r.guard.Inject = &resilience.Injector{
		AtStep: f.AtStep, Count: f.Count, Cell: f.Cell,
		Unphysical: f.Unphysical, InStage: f.InStage,
	}
	if f.Cell == 0 {
		r.guard.Inject.Cell = -1
	}
	return nil
}

func (r *simRunner) WriteResult(w io.Writer) error {
	if r.sim.Grid.Ny > 1 {
		return r.sim.WriteSlab(w)
	}
	return r.sim.WriteProfile(w)
}

// amrRunner drives an AMRSim.
type amrRunner struct {
	sim  *AMRSim
	tEnd float64
}

func newAMRRunner(a *AMRSim, tEnd float64) *amrRunner {
	if tEnd <= 0 {
		tEnd = a.Problem.TEnd
	}
	return &amrRunner{sim: a, tEnd: tEnd}
}

func (r *amrRunner) StepOnce() (float64, error) {
	t := r.sim.Tree
	dt := t.MaxDt()
	if t.Time()+dt > r.tEnd {
		dt = r.tEnd - t.Time()
	}
	if dt <= 0 {
		return 0, fmt.Errorf("rhsc: time step underflow at t=%v", t.Time())
	}
	return dt, t.Step(dt)
}

func (r *amrRunner) Time() float64      { return r.sim.Tree.Time() }
func (r *amrRunner) TEnd() float64      { return r.tEnd }
func (r *amrRunner) Steps() int         { return r.sim.Tree.Steps() }
func (r *amrRunner) SetStepBase(int)    {} // the tree persists its own counter
func (r *amrRunner) Zones() int         { return r.sim.Tree.TotalZones() }
func (r *amrRunner) ZoneUpdates() int64 { return r.sim.Tree.ZoneUpdates() }

func (r *amrRunner) CheckpointExact(w io.Writer) error { return r.sim.CheckpointExact(w) }
func (r *amrRunner) Fingerprint() uint64               { return r.sim.Tree.Fingerprint() }
func (r *amrRunner) FaultStats() FaultSnapshot {
	return FaultSnapshot{
		Troubled: r.sim.Tree.TroubledCells(),
		Repaired: r.sim.Tree.RepairedCells(),
	}
}

func (r *amrRunner) InjectFault(FaultInjection) error {
	return fmt.Errorf("rhsc: fault injection requires a serial job")
}

func (r *amrRunner) WriteResult(w io.Writer) error {
	t := r.sim.Tree
	nbx, _ := t.RootBlocks()
	// Root-resolution centerline sample: enough to plot the solution
	// without serialising the hierarchy.
	n := nbx * t.BlockSize()
	if n < 64 {
		n = 64
	}
	p := r.sim.Problem
	dx := (p.X1 - p.X0) / float64(n)
	ymid := 0.0
	if p.Dim >= 2 {
		ymid = 0.5 * (p.Y0 + p.Y1)
	}
	fmt.Fprintln(w, "x,rho,vx,vy,p")
	for i := 0; i < n; i++ {
		x := p.X0 + (float64(i)+0.5)*dx
		pr := t.SampleAt(x, ymid)
		if _, err := fmt.Fprintf(w, "%.12g,%.12g,%.12g,%.12g,%.12g\n",
			x, pr.Rho, pr.Vx, pr.Vy, pr.P); err != nil {
			return err
		}
	}
	return nil
}

// --- Newtonian baseline --------------------------------------------------

// NewtonSim is the classical (non-relativistic) Euler baseline on the
// same problems and grids, for relativistic-vs-Newtonian comparisons.
type NewtonSim struct {
	Problem *testprob.Problem
	Solver  *newton.Solver
	Grid    *grid.Grid
}

// NewNewtonSim builds the baseline simulation of a catalogued problem.
// Only the Problem, N, Recon, CFL and Gamma options are honoured (the
// baseline always uses the classical HLLC flux and an ideal gas).
func NewNewtonSim(o Options) (*NewtonSim, error) {
	name := o.Problem
	if name == "" {
		name = "sod"
	}
	p, err := testprob.ByName(name)
	if err != nil {
		return nil, err
	}
	cfg := newton.DefaultConfig()
	cfg.Gamma = p.Gamma
	if o.Gamma > 0 {
		cfg.Gamma = o.Gamma
	}
	if o.Recon != "" {
		r, err := recon.ByName(o.Recon)
		if err != nil {
			return nil, err
		}
		cfg.Recon = r
	}
	if o.CFL > 0 {
		cfg.CFL = o.CFL
	}
	n := o.N
	if n <= 0 {
		n = 256
	}
	g := p.NewGrid(n, cfg.Recon.Ghost())
	s, err := newton.New(g, cfg)
	if err != nil {
		return nil, err
	}
	s.InitFromPrim(p.Init)
	return &NewtonSim{Problem: p, Solver: s, Grid: g}, nil
}

// RunTo advances the baseline to time t.
func (s *NewtonSim) RunTo(t float64) error {
	_, err := s.Solver.Advance(t)
	return err
}

// At returns the primitive state at the cell nearest (x, y).
func (s *NewtonSim) At(x, y float64) Prim {
	return s.Grid.W.GetPrim(nearestCell(s.Grid, x, y))
}

// --- Timing helper -------------------------------------------------------

// Mzups converts zone updates over a wall-clock duration into mega-zone
// updates per second.
func Mzups(zoneUpdates int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(zoneUpdates) / elapsed.Seconds() / 1e6
}
