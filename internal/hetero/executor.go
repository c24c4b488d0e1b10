package hetero

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"rhsc/internal/core"
	"rhsc/internal/metrics"
	"rhsc/internal/par"
)

// Policy selects how tiles are scheduled across devices.
type Policy int

// Scheduling policies.
const (
	// Static partitions each phase proportionally to raw ZoneRate, one
	// kernel per device per phase. Minimal launch overhead, but blind to
	// transfer costs, so mismatched devices imbalance.
	Static Policy = iota
	// Dynamic feeds fixed-size chunks to whichever device would finish
	// earliest (deterministic list scheduling of a work queue), adapting
	// to effective — not nominal — device speed.
	Dynamic
	// Routed plans through the health-scored router: placements score
	// affinity (working-set residency and interconnect locality),
	// fragmentation (kernel-count penalty), and equivalent-capacity
	// substitution (observed rate × health weights), and degraded or
	// flaky devices are drained out of rotation mid-run (router.go).
	Routed
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	default:
		return "routed"
	}
}

// routedKernelsPerDevice is the routed planner's target kernel count per
// device per phase: chunks scale with capacity share so fast devices get
// few large contiguous kernels (low fragmentation) and slow ones small
// top-ups.
const routedKernelsPerDevice = 4

// assignment is a tile range given to one device: one kernel.
type assignment struct {
	dev    int
	lo, hi int
}

// tileCost is the cost-model view of the solver a phase runs on. A kernel
// over tiles [lo, hi) computes every active direction of the zones it
// owns — zones × ndim zone-sweeps, the unit of Spec.ZoneRate — and a
// staged device ships those zones' working set once for all directions.
type tileCost struct {
	zones func(lo, hi int) int // core.Solver.TileZones
	ndim  int
}

// marginal is Device.MarginalCost of the kernel over tiles [lo, hi).
func (c tileCost) marginal(d *Device, lo, hi int) float64 {
	return d.MarginalCost(c.zones(lo, hi), c.ndim)
}

// Executor dispatches the solver's pencil tiles onto a device set and
// accounts virtual time. Attach it to one solver (or to every leaf
// solver of an AMR tree via amr.Config.Attach); afterwards the solver's
// normal Step/Advance run heterogeneously. One RHS evaluation of one
// attached solver is one phase: it is planned once, every device gets its
// kernels, and the slowest device sets the phase's makespan.
type Executor struct {
	Devices []*Device
	Policy  Policy

	// Trace, when true, records one event per kernel for timeline
	// (Gantt) export via TraceEvents / WriteTraceCSV.
	Trace bool

	// Chaos, when non-nil, is the deterministic chaos schedule: device
	// deaths, latency spikes, and flapping health keyed to phases (see
	// chaos.go).
	Chaos *ChaosSchedule
	// Stats counts injected device faults, kernel re-executions, and the
	// degraded-mode flag; NewExecutor points it at private storage, but
	// callers may share one across executors.
	Stats *metrics.FaultCounters

	router *Router
	pool   *par.Pool
	own    metrics.FaultCounters

	// mu guards every field below — the virtual makespan, phase counter,
	// trace, backoff bookkeeping, and affinity memory — so TraceEvents,
	// Report, and the other read paths are safe while phases run.
	mu        sync.Mutex
	virtual   float64 // accumulated virtual makespan
	phase     int64
	events    []TraceEvent
	backoff   float64 // accumulated virtual retry-backoff seconds
	pending   float64 // backoff charged to the current phase's makespan
	lastOwner []int   // previous phase's tile owners (affinity)
}

// TraceEvent is one kernel on a device's virtual timeline.
type TraceEvent struct {
	Phase  int64   // phase counter (RHS evaluations since the last reset)
	Device string  // device name
	Tiles  int     // tiles in the kernel
	Zones  int     // zone-sweeps charged (tile zones × active directions)
	Start  float64 // device-local virtual start time (seconds)
	End    float64
}

// NewExecutor builds an executor over the given devices.
func NewExecutor(policy Policy, devices ...*Device) (*Executor, error) {
	if len(devices) == 0 {
		return nil, errors.New("hetero: executor needs at least one device")
	}
	workers := 0
	for _, d := range devices {
		if d == nil {
			return nil, errors.New("hetero: nil device")
		}
		workers += d.Spec.Workers
	}
	ex := &Executor{
		Devices: devices,
		Policy:  policy,
		pool:    par.NewPool(workers),
		router:  NewRouter(HealthConfig{}, devices...),
	}
	ex.Stats = &ex.own
	return ex, nil
}

// MustExecutor is NewExecutor for statically known-good device sets;
// it panics on input NewExecutor rejects.
func MustExecutor(policy Policy, devices ...*Device) *Executor {
	ex, err := NewExecutor(policy, devices...)
	if err != nil {
		panic(err)
	}
	return ex
}

// Router returns the executor's health-scored router (shared with every
// solver the executor is attached to). Tune its config through
// SetHealthConfig before stepping.
func (ex *Executor) Router() *Router { return ex.router }

// SetHealthConfig rebuilds the router with the given health model (zero
// fields take defaults). Call before stepping; it resets health state.
func (ex *Executor) SetHealthConfig(cfg HealthConfig) {
	c := ex.router.C
	ex.router = NewRouter(cfg, ex.Devices...)
	ex.router.C = c
}

// Attach hooks the executor into the solver's tile execution. It must
// be called before stepping; it also routes the solver's generic pool
// work through the executor's pool. One executor may be attached to many
// solvers (the AMR tree attaches it to every leaf), which share its
// devices, clocks, and router.
func (ex *Executor) Attach(s *core.Solver) {
	tc := tileCost{zones: s.TileZones, ndim: len(s.G.ActiveDims())}
	s.Cfg.TileExec = func(nTiles int, run func(lo, hi int)) {
		ex.exec(tc, nTiles, run)
	}
	if s.Cfg.Pool == nil {
		s.Cfg.Pool = ex.pool
	}
}

// VirtualTime returns the accumulated virtual makespan in seconds.
func (ex *Executor) VirtualTime() float64 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.virtual
}

// ResetClocks zeroes the executor makespan, trace, fault and router
// state and every device clock.
func (ex *Executor) ResetClocks() {
	ex.mu.Lock()
	ex.virtual = 0
	ex.phase = 0
	ex.events = nil
	ex.backoff = 0
	ex.pending = 0
	ex.lastOwner = nil
	ex.mu.Unlock()
	for _, d := range ex.Devices {
		d.Reset()
	}
	ex.router.Reset()
	ex.Stats.Reset()
}

// BackoffVirtual returns the virtual seconds spent in retry backoff
// after device deaths.
func (ex *Executor) BackoffVirtual() float64 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.backoff
}

// Degraded reports whether a device has been lost and the executor is
// running on the reduced set.
func (ex *Executor) Degraded() bool { return ex.Stats.Degraded.Load() }

// TraceEvents returns a copy of the recorded kernel timeline (Trace must
// have been enabled), sorted by phase then device-local start time. Safe
// to call while phases are executing.
func (ex *Executor) TraceEvents() []TraceEvent {
	ex.mu.Lock()
	out := append([]TraceEvent(nil), ex.events...)
	ex.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// WriteTraceCSV dumps the kernel timeline for external Gantt plotting.
func (ex *Executor) WriteTraceCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "phase,device,tiles,zones,start,end"); err != nil {
		return err
	}
	for _, e := range ex.TraceEvents() {
		if _, err := fmt.Fprintf(bw, "%d,%s,%d,%d,%.9g,%.9g\n",
			e.Phase, e.Device, e.Tiles, e.Zones, e.Start, e.End); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// exec implements core.Config.TileExec for one attached solver: it plans,
// runs and charges one phase.
func (ex *Executor) exec(tc tileCost, nTiles int, run func(lo, hi int)) {
	if nTiles <= 0 {
		return
	}

	ex.mu.Lock()
	phase := ex.phase
	ex.phase++
	ex.mu.Unlock()

	// Chaos first: latency multipliers for this phase, and the devices
	// whose fail-stop death fires now (they still appear in the plan —
	// the planner learns from the failed launch, below).
	dying := ex.applyChaosPhase(phase)

	var plan []assignment
	switch ex.Policy {
	case Static:
		plan = ex.staticPlan(nTiles)
	case Dynamic:
		plan = ex.dynamicPlan(nil, 0, nTiles, tc)
	case Routed:
		plan = ex.routedPlan(nTiles, tc)
	}
	if len(dying) > 0 {
		plan = ex.rerouteDead(plan, dying, tc)
	}
	ex.rememberOwners(nTiles, plan)

	// Execute: kernels run for real on the pool, then each is charged to
	// its device's virtual clock — in plan order, after the join, because a
	// clock is a float sum and completion order would make its last digit
	// depend on the scheduler.
	phaseStart := make([]float64, len(ex.Devices))
	phaseZones := make([]int64, len(ex.Devices))
	phaseKerns := make([]int64, len(ex.Devices))
	for i, dev := range ex.Devices {
		phaseStart[i] = dev.Busy()
		phaseZones[i] = dev.Zones()
		phaseKerns[i] = dev.Kernels()
	}
	var wg sync.WaitGroup
	for _, a := range plan {
		a := a
		wg.Add(1)
		ex.pool.Go(func() {
			defer wg.Done()
			run(a.lo, a.hi)
		})
	}
	wg.Wait()
	for _, a := range plan {
		zones := tc.zones(a.lo, a.hi) * tc.ndim
		dev := ex.Devices[a.dev]
		_, start, end := dev.chargeInterval(zones)
		if ex.Trace {
			ex.mu.Lock()
			ex.events = append(ex.events, TraceEvent{
				Phase: phase, Device: dev.Spec.Name,
				Tiles: a.hi - a.lo, Zones: zones,
				Start: start, End: end,
			})
			ex.mu.Unlock()
		}
	}

	// Staged devices pay one streamed transfer of the phase working set:
	// the zones they own cross the link once for all directions.
	phaseBytes := make([]int64, len(ex.Devices))
	for i, dev := range ex.Devices {
		if z := dev.Zones() - phaseZones[i]; z > 0 && dev.Staged() {
			phaseBytes[i] = int64(tileBytes(int(z) / tc.ndim))
			dev.ChargeTransfer(int(phaseBytes[i]))
		}
	}

	// Feed the phase's observed latencies into the health model — the
	// router sees effective (chaos-inflated, transfer-inclusive) speed,
	// priced against the launch/transfer-aware nominal cost.
	obs := make([]Obs, 0, len(ex.Devices))
	for i, dev := range ex.Devices {
		if z := dev.Zones() - phaseZones[i]; z > 0 {
			obs = append(obs, Obs{
				Dev: i, Zones: z,
				Busy:  dev.Busy() - phaseStart[i],
				Kerns: dev.Kernels() - phaseKerns[i],
				Bytes: phaseBytes[i],
			})
		}
	}
	ex.router.ObservePhase(obs)

	// Makespan of this phase: the slowest device's accumulated charge,
	// plus any retry backoff a device death cost this phase.
	ex.mu.Lock()
	span := ex.pending
	ex.backoff += ex.pending
	ex.pending = 0
	ex.mu.Unlock()
	for i, dev := range ex.Devices {
		if b := dev.Busy() - phaseStart[i]; b > span {
			span = b
		}
	}
	ex.mu.Lock()
	ex.virtual += span
	ex.mu.Unlock()
}

// rerouteDead handles fail-stop deaths that fired this phase: each dying
// device is charged its wasted launch and the bounded exponential-backoff
// retry series, then every kernel still planned on it is list-scheduled
// onto the survivors, on top of what they already hold. Deterministic: it
// runs in the serial planning path, so a run with deaths is exactly
// reproducible (pool execution order is not, plan order is).
func (ex *Executor) rerouteDead(plan []assignment, dying []int, tc tileCost) []assignment {
	dead := make([]bool, len(ex.Devices))
	for _, i := range dying {
		if ex.router.Dead(i) {
			continue
		}
		dead[i] = true
		ex.router.MarkDead(i)
		ex.Stats.Injected.Add(1)
		ex.Stats.Degraded.Store(true)
		ex.Devices[i].Charge(0) // the launch that came back with the error
		back, retries := ex.Chaos.retryParams()
		ex.mu.Lock()
		for k := 0; k <= retries; k++ {
			ex.Stats.Retries.Add(1)
			ex.pending += back
			back *= 2
		}
		ex.mu.Unlock()
	}

	live := ex.healthy()
	eta := make([]float64, len(ex.Devices))
	out := make([]assignment, 0, len(plan))
	for _, a := range plan {
		if !dead[a.dev] {
			out = append(out, a)
			eta[a.dev] += tc.marginal(ex.Devices[a.dev], a.lo, a.hi)
			continue
		}
		ex.router.C.Reroutes.Add(1)
		out = ex.listSchedule(out, eta, live, a.lo, a.hi, a.hi-a.lo, tc)
	}
	return out
}

// healthy returns the schedulable device indices: every device not
// fail-stopped, or all of them if none survives (the correctness path
// must still run the tiles somewhere — degraded host execution).
func (ex *Executor) healthy() []int {
	out := make([]int, 0, len(ex.Devices))
	for i := range ex.Devices {
		if !ex.router.Dead(i) {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		for i := range ex.Devices {
			out = append(out, i)
		}
	}
	return out
}

// staticPlan splits [0, nTiles) proportionally to raw ZoneRate: one
// kernel per healthy device.
func (ex *Executor) staticPlan(nTiles int) []assignment {
	devs := ex.healthy()
	total := 0.0
	for _, i := range devs {
		total += ex.Devices[i].Spec.ZoneRate
	}
	plan := make([]assignment, 0, len(devs))
	lo := 0
	acc := 0.0
	for n, i := range devs {
		acc += ex.Devices[i].Spec.ZoneRate
		hi := int(math.Round(float64(nTiles) * acc / total))
		if n == len(devs)-1 {
			hi = nTiles
		}
		if hi > lo {
			plan = append(plan, assignment{dev: i, lo: lo, hi: hi})
		}
		lo = hi
	}
	return plan
}

// listSchedule is the one earliest-finish list scheduler: it appends
// tiles [lo, hi) to plan in chunks, each placed on the device of devs
// that would finish it earliest given eta — the virtual seconds every
// device already holds this phase, which it advances.
func (ex *Executor) listSchedule(plan []assignment, eta []float64, devs []int,
	lo, hi, chunk int, tc tileCost) []assignment {

	for ; lo < hi; lo += chunk {
		end := min(lo+chunk, hi)
		best, bestT := devs[0], math.Inf(1)
		for _, i := range devs {
			if t := eta[i] + tc.marginal(ex.Devices[i], lo, end); t < bestT {
				best, bestT = i, t
			}
		}
		eta[best] = bestT
		plan = append(plan, assignment{dev: best, lo: lo, hi: end})
	}
	return plan
}

// dynamicPlan models a work queue: tiles [lo, nTiles) are list-scheduled
// over the healthy devices in chunks of max(1, nTiles/(8·ndev)) and
// appended to plan. It is the whole plan of the Dynamic policy and the
// routed planner's fallback when nothing is in rotation.
func (ex *Executor) dynamicPlan(plan []assignment, lo, nTiles int, tc tileCost) []assignment {
	devs := ex.healthy()
	chunk := max(1, nTiles/(8*len(devs)))
	return ex.listSchedule(plan, make([]float64, len(ex.Devices)), devs, lo, nTiles, chunk, tc)
}

// routedPlan is the health-scored placement: probing devices get one
// minimal probe kernel, then chunks sized by capacity share are placed
// by minimising ETA + cost + affinity + fragmentation:
//
//   - cost uses the router's *observed* per-zone latency, so placements
//     track effective, not nominal, speed;
//   - affinity discounts a staged device re-owning tiles it held last
//     phase (working set already resident) and half-discounts a handoff
//     inside the same interconnect domain;
//   - fragmentation adds one launch latency per kernel a device already
//     holds, biasing toward few large contiguous kernels;
//   - weights embody equivalent-capacity substitution: a drained fast
//     device's share redistributes over the remaining fleet.
//
// When nothing is in rotation the executor demotes to the work queue over
// whatever healthy() returns — the run always finishes.
func (ex *Executor) routedPlan(nTiles int, tc tileCost) []assignment {
	weights, probes := ex.router.planWeights()

	var plan []assignment
	lo := 0
	probeTiles := ex.router.Config().ProbeStrips
	for _, pi := range probes {
		if lo >= nTiles {
			break
		}
		hi := min(lo+probeTiles, nTiles)
		plan = append(plan, assignment{dev: pi, lo: lo, hi: hi})
		lo = hi
	}

	var elig []int
	totalW := 0.0
	for i, w := range weights {
		if w > 0 {
			elig = append(elig, i)
			totalW += w
		}
	}
	if lo >= nTiles {
		return plan
	}
	if len(elig) == 0 {
		// Last-healthy-device demotion: no routed capacity remains, so
		// the remainder runs degraded on the fallback set.
		ex.Stats.Degraded.Store(true)
		return ex.dynamicPlan(plan, lo, nTiles, tc)
	}

	prev := ex.prevOwners(nTiles)
	eta := make([]float64, len(ex.Devices))
	kerns := make([]int, len(ex.Devices))
	perZone := make([]float64, len(ex.Devices))
	for _, i := range elig {
		perZone[i] = ex.router.EffPerZone(i)
	}
	for lo < nTiles {
		best, bestHi := -1, 0
		bestScore, bestCost := math.Inf(1), 0.0
		for _, i := range elig {
			dev := ex.Devices[i]
			chunk := max(1, int(float64(nTiles)*weights[i]/totalW/routedKernelsPerDevice+0.5))
			hi := min(lo+chunk, nTiles)
			zones := tc.zones(lo, hi)
			cost := dev.Spec.LaunchLatency + float64(zones*tc.ndim)*perZone[i]
			if dev.Staged() {
				xfer := float64(tileBytes(zones)) / dev.Spec.TransferBW
				switch {
				case prev != nil && prev[lo] == i:
					// Working set still resident from the last phase.
				case prev != nil && prev[lo] >= 0 &&
					ex.Devices[prev[lo]].Spec.Domain == dev.Spec.Domain:
					cost += 0.5 * xfer // near handoff inside the domain
				default:
					cost += xfer
				}
			} else if prev != nil && prev[lo] == i {
				cost *= 0.98 // cache-warm affinity nudge
			}
			score := eta[i] + cost + float64(kerns[i])*dev.Spec.LaunchLatency
			if score < bestScore {
				best, bestHi, bestScore, bestCost = i, hi, score, cost
			}
		}
		plan = append(plan, assignment{dev: best, lo: lo, hi: bestHi})
		eta[best] += bestCost
		kerns[best]++
		lo = bestHi
	}
	return plan
}

// prevOwners returns the previous phase's per-tile owner array, or nil
// when unknown or the tile count changed (first phase, a differently
// shaped AMR leaf).
func (ex *Executor) prevOwners(nTiles int) []int {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if len(ex.lastOwner) != nTiles {
		return nil
	}
	return ex.lastOwner
}

// rememberOwners records the plan's tile ownership for the next phase's
// affinity scoring.
func (ex *Executor) rememberOwners(nTiles int, plan []assignment) {
	own := make([]int, nTiles)
	for i := range own {
		own[i] = -1
	}
	for _, a := range plan {
		for t := a.lo; t < a.hi; t++ {
			own[t] = a.dev
		}
	}
	ex.mu.Lock()
	ex.lastOwner = own
	ex.mu.Unlock()
}

// LoadReport summarises per-device work after a run.
type LoadReport struct {
	Name    string
	Kind    Kind
	Zones   int64
	Kernels int64
	Busy    float64 // virtual seconds
	Share   float64 // fraction of total zones
	Faulted bool    // fail-stopped mid-run (router state "dead")
	State   string  // router drain state
	Score   float64 // rolling health score
}

// Report returns the per-device load breakdown, ordered as the devices
// were given. Safe to call while phases are executing.
func (ex *Executor) Report() []LoadReport {
	var total int64
	for _, d := range ex.Devices {
		total += d.Zones()
	}
	health := ex.router.HealthReport()
	out := make([]LoadReport, len(ex.Devices))
	for i, d := range ex.Devices {
		share := 0.0
		if total > 0 {
			share = float64(d.Zones()) / float64(total)
		}
		out[i] = LoadReport{
			Name: d.Spec.Name, Kind: d.Spec.Kind,
			Zones: d.Zones(), Kernels: d.Kernels(),
			Busy: d.Busy(), Share: share,
			Faulted: health[i].State == "dead",
			State:   health[i].State,
			Score:   health[i].Score,
		}
	}
	return out
}

// Imbalance returns max(busy)/mean(busy) − 1 across devices: 0 for perfect
// balance.
func (ex *Executor) Imbalance() float64 {
	if len(ex.Devices) < 2 {
		return 0
	}
	busies := make([]float64, len(ex.Devices))
	sum := 0.0
	for i, d := range ex.Devices {
		busies[i] = d.Busy()
		sum += busies[i]
	}
	mean := sum / float64(len(busies))
	if mean <= 0 {
		return 0
	}
	sort.Float64s(busies)
	return busies[len(busies)-1]/mean - 1
}
