package hetero

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"rhsc/internal/core"
	"rhsc/internal/metrics"
	"rhsc/internal/par"
)

// Policy selects how tiles are scheduled across devices. Each policy is
// one row of the placement loop (planRows, Executor.place).
type Policy int

// Scheduling policies.
const (
	// Static gives every healthy device one kernel sized by its share of
	// the fleet's raw ZoneRate. Minimal launch overhead, but blind to
	// transfer costs, so mismatched devices imbalance.
	Static Policy = iota
	// Dynamic feeds fixed-size chunks to whichever device would finish
	// earliest at its nominal marginal cost (deterministic list scheduling
	// of a work queue), so transfer costs steer the split.
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

// pricing is how a plan row scores a device for the next kernel in the
// placement loop.
type pricing int

const (
	// frozen scores every device at 1 and only counts the kernels it
	// already holds, so devices take their chunks in device order.
	frozen pricing = iota
	// nominal scores the virtual seconds the device would finish at: what
	// it holds this phase plus the kernel's Device.MarginalCost.
	nominal
	// observed is nominal with the router's observed per-zone latency for
	// the compute term, affinity for the transfer term (price), and one
	// launch latency per kernel already held (fragmentation).
	observed
)

// planRow is one policy's setting of the placement loop.
type planRow struct {
	// price scores candidates; observed rows also take their weights from
	// the router (observed rate × health, zero out of rotation) and give
	// probing devices a probe kernel. Other rows weight every device not
	// fail-stopped by its spec ZoneRate.
	price pricing
	// kernels sizes the chunks from the weights. Zero gives every device
	// the work queue's chunk, max(1, nTiles/(8·ndev)); one splits the tiles
	// into one contiguous chunk per device by cumulative weight share;
	// more gives a device its weight share over kernels, so fast devices
	// get few large contiguous kernels.
	kernels int
}

// planRows holds the policies' rows of the placement loop.
var planRows = [...]planRow{
	Static:  {price: frozen, kernels: 1},
	Dynamic: {price: nominal},
	Routed:  {price: observed, kernels: 4},
}

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

	// Trace, when true, records one TraceEvent per kernel: the device
	// timeline the placement and chaos tests check.
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
	// trace, backoff bookkeeping, affinity memory and idle scratch — so
	// Report and the other read paths are safe while phases run.
	mu        sync.Mutex
	virtual   float64 // accumulated virtual makespan
	phase     int64
	events    []TraceEvent
	backoff   float64 // accumulated virtual retry-backoff seconds
	pending   float64 // backoff charged to the current phase's makespan
	lastOwner []int   // previous phase's tile owners (affinity)
	idle      *phaseScratch
}

// phaseScratch is one phase's planning and accounting storage. A phase
// takes the executor's idle scratch and returns it, so phases after the
// first allocate nothing; a phase that finds it taken (a second attached
// solver mid-phase) builds its own.
type phaseScratch struct {
	plan    []assignment
	prev    []int            // the previous phase's tile owners, or nil
	tiles   func(lo, hi int) // the attached solver's tile runner
	kernels func(lo, hi int) // runKernels, bound once so dispatch allocates nothing

	// Per device, indexed like Executor.Devices.
	weight  []float64 // placement weight; 0 = not a candidate
	perZone []float64 // observed per-zone latency (observed rows)
	chunk   []int     // kernel size in tiles this plan
	eta     []float64 // virtual seconds already placed this phase
	kerns   []int     // kernels already placed this phase
	probes  []int
	dead    []bool // fail-stopped this phase

	start []float64 // phase-start clock readings
	zones []int64
	ks    []int64
	bytes []int64
	obs   []Obs
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
	if policy < 0 || int(policy) >= len(planRows) {
		return nil, fmt.Errorf("hetero: unknown policy %d", policy)
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
		router:  NewRouter(devices...),
		idle:    newPhaseScratch(len(devices)),
	}
	ex.Stats = &ex.own
	return ex, nil
}

// newPhaseScratch sizes a phase's storage for n devices.
func newPhaseScratch(n int) *phaseScratch {
	p := &phaseScratch{
		weight: make([]float64, n), perZone: make([]float64, n),
		chunk: make([]int, n), eta: make([]float64, n), kerns: make([]int, n),
		dead: make([]bool, n), start: make([]float64, n),
		zones: make([]int64, n), ks: make([]int64, n), bytes: make([]int64, n),
		obs: make([]Obs, 0, n), probes: make([]int, 0, n),
	}
	p.kernels = p.runKernels
	return p
}

// Router returns the executor's health-scored router (shared with every
// solver the executor is attached to).
func (ex *Executor) Router() *Router { return ex.router }

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
	ex.lastOwner = ex.lastOwner[:0]
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

// exec implements core.Config.TileExec for one attached solver: it plans,
// runs and charges one phase.
func (ex *Executor) exec(tc tileCost, nTiles int, run func(lo, hi int)) {
	if nTiles <= 0 {
		return
	}
	ex.mu.Lock()
	phase := ex.phase
	ex.phase++
	p := ex.idle
	ex.idle = nil
	ex.mu.Unlock()
	if p == nil {
		p = newPhaseScratch(len(ex.Devices))
	}

	// Chaos first: latency multipliers for this phase, and the devices
	// whose fail-stop death fires now (they still appear in the plan —
	// the planner learns from the failed launch, below).
	dying := ex.applyChaosPhase(phase)

	ex.plan(p, nTiles, tc)
	if len(dying) > 0 {
		ex.rerouteDead(p, dying, tc)
	}
	ex.rememberOwners(p.plan, nTiles)

	// Execute: kernels run for real on the pool, then each is charged to
	// its device's virtual clock — in plan order, after the join, because a
	// clock is a float sum and completion order would make its last digit
	// depend on the scheduler.
	for i, dev := range ex.Devices {
		p.start[i] = dev.Busy()
		p.zones[i] = dev.Zones()
		p.ks[i] = dev.Kernels()
	}
	p.tiles = run
	ex.pool.ParallelFor(0, len(p.plan), 1, p.kernels)
	p.tiles = nil // an idle scratch must not keep the solver alive
	for _, a := range p.plan {
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
	for i, dev := range ex.Devices {
		p.bytes[i] = 0
		if z := dev.Zones() - p.zones[i]; z > 0 && dev.Staged() {
			p.bytes[i] = int64(tileBytes(int(z) / tc.ndim))
			dev.ChargeTransfer(int(p.bytes[i]))
		}
	}

	// Feed the phase's observed latencies into the health model — the
	// router sees effective (chaos-inflated, transfer-inclusive) speed,
	// priced against the launch/transfer-aware nominal cost.
	p.obs = p.obs[:0]
	for i, dev := range ex.Devices {
		if z := dev.Zones() - p.zones[i]; z > 0 {
			p.obs = append(p.obs, Obs{
				Dev: i, Zones: z,
				Busy:  dev.Busy() - p.start[i],
				Kerns: dev.Kernels() - p.ks[i],
				Bytes: p.bytes[i],
			})
		}
	}
	ex.router.ObservePhase(p.obs)

	// Makespan of this phase: the slowest device's accumulated charge,
	// plus any retry backoff a device death cost this phase.
	ex.mu.Lock()
	span := ex.pending
	ex.backoff += ex.pending
	ex.pending = 0
	ex.mu.Unlock()
	for i, dev := range ex.Devices {
		if b := dev.Busy() - p.start[i]; b > span {
			span = b
		}
	}
	ex.mu.Lock()
	ex.virtual += span
	ex.idle = p
	ex.mu.Unlock()
}

// runKernels runs the kernels plan[lo:hi] on the attached solver's tiles;
// exec hands it to the pool, one kernel per task.
func (p *phaseScratch) runKernels(lo, hi int) {
	for _, a := range p.plan[lo:hi] {
		p.tiles(a.lo, a.hi)
	}
}

// plan builds the phase's plan in p.plan from the policy's row: probe
// kernels first (observed rows), then the placement loop over the rest.
func (ex *Executor) plan(p *phaseScratch, nTiles int, tc tileCost) {
	row := planRows[ex.Policy]
	p.plan = p.plan[:0]
	clear(p.eta)
	clear(p.kerns)
	lo := 0
	var prev []int
	if row.price == observed {
		p.probes = ex.router.planWeights(p.weight, p.perZone, p.probes[:0])
		for _, i := range p.probes {
			if lo >= nTiles {
				break
			}
			hi := min(lo+probeTiles, nTiles)
			p.plan = append(p.plan, assignment{dev: i, lo: lo, hi: hi})
			lo = hi
		}
		if lo >= nTiles {
			return
		}
		prev = ex.prevOwners(p, nTiles)
		if !slices.ContainsFunc(p.weight, func(w float64) bool { return w > 0 }) {
			// Last-healthy-device demotion: no routed capacity remains, so
			// the remainder runs degraded on the work queue.
			ex.Stats.Degraded.Store(true)
			row = planRows[Dynamic]
		}
	}
	if row.price != observed {
		ex.nominalWeights(p.weight)
	}

	ndev, total := 0, 0.0
	for _, w := range p.weight {
		if w > 0 {
			ndev++
			total += w
		}
	}
	acc, end := 0.0, 0
	for i, w := range p.weight {
		switch {
		case w <= 0:
			p.chunk[i] = 0
		case row.kernels == 0:
			p.chunk[i] = max(1, nTiles/(8*ndev))
		case row.kernels == 1:
			acc += w
			hi := int(math.Round(float64(nTiles) * acc / total))
			p.chunk[i], end = hi-end, hi
		default:
			p.chunk[i] = max(1, int(float64(nTiles)*w/total/float64(row.kernels)+0.5))
		}
	}
	p.plan = ex.place(p, p.plan, row, prev, lo, nTiles, tc)
}

// nominalWeights weights every device not fail-stopped by its spec
// ZoneRate — all of them if none survives, since the correctness path
// must still run the tiles somewhere (degraded host execution).
func (ex *Executor) nominalWeights(weight []float64) {
	live := false
	for i := range ex.Devices {
		live = live || !ex.router.Dead(i)
	}
	for i, d := range ex.Devices {
		weight[i] = 0
		if !live || !ex.router.Dead(i) {
			weight[i] = d.Spec.ZoneRate
		}
	}
}

// place is the placement loop every policy runs. It appends tiles
// [lo, hi) to plan one kernel at a time, each on the candidate the row
// scores lowest, ties to the lower device index. A device's kernel is its
// chunk of tiles; devices with a zero chunk are not candidates.
func (ex *Executor) place(p *phaseScratch, plan []assignment, row planRow, prev []int, lo, hi int, tc tileCost) []assignment {
	for lo < hi {
		best, bestHi := -1, 0
		bestScore, bestCost := math.Inf(1), 0.0
		for i, c := range p.chunk {
			if c == 0 {
				continue
			}
			end := min(lo+c, hi)
			var cost, score float64
			switch row.price {
			case frozen:
				score = float64(p.kerns[i])
			case nominal:
				cost = tc.marginal(ex.Devices[i], lo, end)
				score = p.eta[i] + cost
			case observed:
				cost = ex.price(p.perZone[i], prev, i, lo, end, tc)
				score = p.eta[i] + cost + float64(p.kerns[i])*ex.Devices[i].Spec.LaunchLatency
			}
			if best < 0 || score < bestScore {
				best, bestHi, bestScore, bestCost = i, end, score, cost
			}
		}
		plan = append(plan, assignment{dev: best, lo: lo, hi: bestHi})
		p.eta[best] += bestCost
		p.kerns[best]++
		lo = bestHi
	}
	return plan
}

// price is an observed row's cost of a kernel over tiles [lo, hi) on
// device i: launch latency plus the router's observed per-zone latency
// perZone, adjusted for affinity with the previous phase's owners prev (nil when
// unknown):
//
//   - a staged device pays the transfer of the kernel's working set,
//     nothing when it owned the tiles last phase (working set still
//     resident), and half on a handoff inside its interconnect domain;
//   - a host device re-owning its own tiles gets a 2 % cache-warm nudge.
func (ex *Executor) price(perZone float64, prev []int, i, lo, hi int, tc tileCost) float64 {
	dev := ex.Devices[i]
	zones := tc.zones(lo, hi)
	cost := dev.Spec.LaunchLatency + float64(zones*tc.ndim)*perZone
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
	return cost
}

// rerouteDead handles fail-stop deaths that fired this phase: each dying
// device is charged its wasted launch and the bounded exponential-backoff
// retry series, then every kernel still planned on it is placed whole by
// the work queue's row onto the survivors, on top of what they already
// hold. Deterministic: it runs in the serial planning path, so a run with
// deaths is exactly reproducible (pool execution order is not, plan order
// is).
func (ex *Executor) rerouteDead(p *phaseScratch, dying []int, tc tileCost) {
	clear(p.dead)
	for _, i := range dying {
		if ex.router.Dead(i) {
			continue
		}
		p.dead[i] = true
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

	ex.nominalWeights(p.weight)
	clear(p.eta)
	// Each kernel maps to exactly one kernel, so the plan is rewritten in
	// place.
	out := p.plan[:0]
	for _, a := range p.plan {
		if !p.dead[a.dev] {
			out = append(out, a)
			p.eta[a.dev] += tc.marginal(ex.Devices[a.dev], a.lo, a.hi)
			continue
		}
		ex.router.C.Reroutes.Add(1)
		for i, w := range p.weight {
			p.chunk[i] = 0
			if w > 0 {
				p.chunk[i] = a.hi - a.lo
			}
		}
		out = ex.place(p, out, planRows[Dynamic], nil, a.lo, a.hi, tc)
	}
	p.plan = out
}

// prevOwners copies the previous phase's per-tile owners into p.prev and
// returns them, or returns nil when they are unknown or the tile count
// changed (first phase, a differently shaped AMR leaf).
func (ex *Executor) prevOwners(p *phaseScratch, nTiles int) []int {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if len(ex.lastOwner) != nTiles {
		return nil
	}
	p.prev = append(p.prev[:0], ex.lastOwner...)
	return p.prev
}

// rememberOwners records the plan's tile ownership for the next phase's
// affinity scoring.
func (ex *Executor) rememberOwners(plan []assignment, nTiles int) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if cap(ex.lastOwner) < nTiles {
		ex.lastOwner = make([]int, nTiles)
	}
	own := ex.lastOwner[:nTiles]
	for i := range own {
		own[i] = -1
	}
	for _, a := range plan {
		for t := a.lo; t < a.hi; t++ {
			own[t] = a.dev
		}
	}
	ex.lastOwner = own
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
