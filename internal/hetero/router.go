package hetero

import (
	"math"
	"sort"
	"sync"

	"rhsc/internal/metrics"
)

// DevState is a device's position in the router's drain state machine.
//
//	Healthy ⇄ Suspect → Drained → Probing → Healthy (undrain)
//	                      ↑          ↓ (probe still slow: hold doubles)
//	                      └──────────┘
//	Drains flapping faster than the health window → Quarantined
//	(exponential hold, then probed like a drain). Fail-stop → Dead.
type DevState int

// Drain state machine states.
const (
	// Healthy devices receive full capacity-weighted work.
	Healthy DevState = iota
	// Suspect devices scored below the suspect threshold: still in
	// rotation, but their weight is scaled by the health score.
	Suspect
	// Drained devices are out of rotation; after a hold they are probed.
	Drained
	// Probing devices receive one minimal probe kernel per plan; a clean
	// observation undrains them, a slow one re-drains with a doubled hold.
	Probing
	// Quarantined devices flapped (drained repeatedly within the flap
	// window) and sit out an exponentially growing hold.
	Quarantined
	// Dead devices hit a fail-stop fault and never return.
	Dead
)

// String implements fmt.Stringer.
func (s DevState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Drained:
		return "drained"
	case Probing:
		return "probing"
	case Quarantined:
		return "quarantined"
	default:
		return "dead"
	}
}

// InRotation reports whether the state receives planned work (probe
// kernels count).
func (s DevState) InRotation() bool {
	return s == Healthy || s == Suspect || s == Probing
}

// The health model's constants (docs/HETERO.md §2–3). Scores live in
// [0, 1]; holds and windows count router ticks (one per observed phase or
// lease).
const (
	latencyAlpha    = 0.4  // EWMA weight of a new per-zone latency sample
	scoreAlpha      = 0.5  // EWMA pull of the health score toward its target
	suspectBelow    = 0.7  // Healthy → Suspect
	recoverAbove    = 0.85 // Suspect → Healthy
	drainBelow      = 0.35 // → Drained
	stragglerFactor = 2.0  // slowdown over the fleet median that marks a straggler
	probeAfter      = 6    // first hold before a drained device is probed; doubles per failed probe
	probeTiles      = 1    // probe kernel size in tiles, the executor's work unit
	flapWindow      = 32   // the flapLimit-th drain within this many ticks quarantines
	flapLimit       = 3
	quarantineHold  = 64   // base quarantine hold; doubles per quarantine of the same device
	faultPenalty    = 0.25 // score multiplier on a failed lease
)

// devHealth is one device's rolling health record.
type devHealth struct {
	state   DevState
	score   float64 // [0, 1]; 1 = nominal
	slow    float64 // EWMA observed/nominal slowdown ratio (1 = on-spec)
	perZone float64 // EWMA observed virtual seconds per zone
	samples int64
	faults  int64
	drains  int64
	flaps   []int64 // ticks of recent drains (flap detection)
	probeAt int64   // tick at which a drained/quarantined device is probed
	hold    int64   // current hold length (doubles on failed probes)
	qhold   int64   // current quarantine length (doubles per quarantine)
	inst    float64 // this phase's instantaneous slowdown (ObservePhase)

	outstanding int64 // lease mode: reserved cost currently placed
}

// Obs is one phase observation of one device: the zones it processed and
// the virtual busy time they cost (including any transfer and chaos
// inflation — the router sees effective latency, not nominal). Kerns and
// Bytes let the router price in launch latency and staged transfers when
// it judges slowdown, so a tiny probe kernel on a high-launch-latency
// device is not mistaken for a straggler.
type Obs struct {
	Dev   int
	Zones int64
	Busy  float64
	Kerns int64 // kernels launched this phase (0 = ignore launch cost)
	Bytes int64 // bytes staged this phase (0 = ignore transfer cost)
}

// nominalBusy is the virtual time the observation *should* have cost on a
// healthy device: launch latency per kernel, zones at nominal rate, and
// the staged transfer. The observed/nominal ratio is the slowdown signal.
func nominalBusy(d *Device, o Obs) float64 {
	n := float64(o.Kerns)*d.Spec.LaunchLatency + float64(o.Zones)/d.Spec.ZoneRate
	if o.Bytes > 0 {
		n += d.TransferCost(int(o.Bytes))
	}
	return n
}

// Router is the health-scored dynamic device router: it tracks a rolling
// per-device health score fed by observed kernel latencies, fault
// reports, and straggler detection (EWMA slowdown vs the fleet median),
// and runs the drain state machine that takes degraded devices out of
// rotation mid-run and probes them back in. The Executor consults it for
// Routed plans; the serve layer leases job placements from it.
//
// All methods are safe for concurrent use; the observation path is
// deterministic (pure function of the observation sequence).
type Router struct {
	// C counts router lifecycle events; NewRouter points it at private
	// storage, but callers may share one across routers.
	C *metrics.RouterCounters

	mu    sync.Mutex
	devs  []*Device
	h     []devHealth
	tick  int64
	slows []float64 // medianSlowdownLocked scratch
	own   metrics.RouterCounters
}

// NewRouter builds a router over the device set.
func NewRouter(devices ...*Device) *Router {
	r := &Router{devs: devices, slows: make([]float64, 0, len(devices))}
	r.C = &r.own
	r.h = make([]devHealth, len(devices))
	r.reset()
	return r
}

// reset reinitialises every device to Healthy/nominal. Caller holds no
// lock (construction) or r.mu (Reset).
func (r *Router) reset() {
	for i := range r.h {
		r.h[i] = devHealth{
			state:   Healthy,
			score:   1,
			slow:    1,
			perZone: 1 / r.devs[i].Spec.ZoneRate,
			hold:    probeAfter,
			qhold:   quarantineHold,
		}
	}
	r.tick = 0
}

// Reset returns every device to Healthy with nominal fingerprint rates
// and zeroes the counters (clock-reset paths).
func (r *Router) Reset() {
	r.mu.Lock()
	r.reset()
	r.mu.Unlock()
	r.C.Reset()
}

// Dead reports whether device i is fail-stopped.
func (r *Router) Dead(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.h[i].state == Dead
}

// MarkDead fail-stops device i: it leaves rotation permanently.
func (r *Router) MarkDead(i int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.h[i].state == Dead {
		return
	}
	r.h[i].state = Dead
	r.h[i].score = 0
	r.C.Deaths.Add(1)
}

// ObservePhase folds one phase's per-device observations into the
// health model and advances the drain state machine: EWMA latency
// update, straggler detection against the fleet median slowdown, probe
// resolution, and hold expiry. One router tick passes per call.
func (r *Router) ObservePhase(obs []Obs) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tick++

	// Fold samples; remember this phase's instantaneous slowdowns for
	// probe resolution (the EWMA still carries the sick history).
	for _, o := range obs {
		if o.Dev < 0 || o.Dev >= len(r.h) || o.Zones <= 0 {
			continue
		}
		h := &r.h[o.Dev]
		if h.state == Dead {
			continue
		}
		perZone := o.Busy / float64(o.Zones)
		slow := 1.0
		if nom := nominalBusy(r.devs[o.Dev], o); nom > 0 {
			slow = o.Busy / nom
		}
		if h.samples == 0 {
			h.perZone = perZone
			h.slow = slow
		} else {
			h.perZone += latencyAlpha * (perZone - h.perZone)
			h.slow += latencyAlpha * (slow - h.slow)
		}
		h.samples++
		h.inst = slow // instantaneous slowdown vs fingerprint
	}

	med := r.medianSlowdownLocked()

	// Score update and state transitions for observed devices.
	for _, o := range obs {
		if o.Dev < 0 || o.Dev >= len(r.h) || o.Zones <= 0 {
			continue
		}
		h := &r.h[o.Dev]
		if h.state == Dead {
			continue
		}
		slow := h.inst
		rel := slow / med
		if h.state == Probing {
			// Probe verdict on the instantaneous sample alone.
			if rel < stragglerFactor {
				r.undrainLocked(h)
				h.slow = slow // adopt the clean rate
				h.perZone = slow / r.devs[o.Dev].Spec.ZoneRate
			} else {
				r.redrainLocked(h)
			}
			continue
		}
		target := 1.0
		if rel > stragglerFactor {
			target = 1 / rel
		}
		h.score += scoreAlpha * (target - h.score)
		r.advanceLocked(o.Dev)
	}
	r.expireHoldsLocked()
}

// expireHoldsLocked turns every drained or quarantined device whose hold
// has run out into a probing one. Caller holds r.mu.
func (r *Router) expireHoldsLocked() {
	for i := range r.h {
		h := &r.h[i]
		if (h.state == Drained || h.state == Quarantined) && r.tick >= h.probeAt {
			h.state = Probing
			r.C.Probes.Add(1)
		}
	}
}

// undrainLocked returns a probing device that passed its probe to full
// rotation. Caller holds r.mu.
func (r *Router) undrainLocked(h *devHealth) {
	h.state = Healthy
	h.score = 1
	h.hold = probeAfter
	r.C.Undrains.Add(1)
}

// redrainLocked drains a probing device that failed its probe, with a
// doubled hold. Caller holds r.mu.
func (r *Router) redrainLocked(h *devHealth) {
	h.hold *= 2
	h.state = Drained
	h.probeAt = r.tick + h.hold
}

// medianSlowdownLocked returns the fleet-median observed slowdown
// (busy time over nominal expected cost) across live devices with
// samples; 1 when nothing has been observed yet.
func (r *Router) medianSlowdownLocked() float64 {
	slows := r.slows[:0]
	for i := range r.h {
		h := &r.h[i]
		if h.state == Dead || h.samples == 0 {
			continue
		}
		slows = append(slows, h.slow)
	}
	r.slows = slows
	if len(slows) == 0 {
		return 1
	}
	sort.Float64s(slows)
	m := slows[len(slows)/2]
	if len(slows)%2 == 0 {
		m = 0.5 * (m + slows[len(slows)/2-1])
	}
	if m <= 0 || math.IsNaN(m) {
		return 1
	}
	return m
}

// advanceLocked runs the score-threshold transitions for device i and
// the flap detector. Caller holds r.mu.
func (r *Router) advanceLocked(i int) {
	h := &r.h[i]
	switch h.state {
	case Healthy:
		if h.score < drainBelow {
			r.drainLocked(i)
		} else if h.score < suspectBelow {
			h.state = Suspect
		}
	case Suspect:
		if h.score < drainBelow {
			r.drainLocked(i)
		} else if h.score > recoverAbove {
			h.state = Healthy
		}
	}
}

// drainLocked takes device i out of rotation and runs the flap detector:
// the flapLimit-th drain within flapWindow ticks quarantines it with an
// exponentially growing hold. Caller holds r.mu.
func (r *Router) drainLocked(i int) {
	h := &r.h[i]
	h.drains++
	r.C.Drains.Add(1)

	// Flap detection over the trailing window.
	h.flaps = append(h.flaps, r.tick)
	live := h.flaps[:0]
	for _, t := range h.flaps {
		if r.tick-t < flapWindow {
			live = append(live, t)
		}
	}
	h.flaps = live
	if len(h.flaps) >= flapLimit {
		h.state = Quarantined
		h.probeAt = r.tick + h.qhold
		h.qhold *= 2
		h.flaps = h.flaps[:0]
		r.C.Quarantines.Add(1)
		return
	}
	h.state = Drained
	h.probeAt = r.tick + h.hold
}

// planWeights fills the routed planner's inputs for every device: the
// capacity weight (observed zone rate × health factor; zero for devices
// out of rotation) and the observed per-zone latency, and appends the
// devices due a probe kernel this plan to probes. The weights encode
// equivalent-capacity substitution — when a fast device drains, its share
// redistributes across the remaining fleet in proportion to effective
// capacity, so two half-speed devices absorb what one full-speed device
// dropped.
func (r *Router) planWeights(weights, perZone []float64, probes []int) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.h {
		h := &r.h[i]
		weights[i], perZone[i] = 0, h.perZone
		switch h.state {
		case Healthy:
			weights[i] = 1 / h.perZone
		case Suspect:
			weights[i] = h.score / h.perZone
		case Probing:
			probes = append(probes, i)
		}
	}
	return probes
}

// --- lease mode (serve placement) ---------------------------------------

// Lease places a job segment of the given cost onto the best in-rotation
// device: the one with the least capacity-normalised backlog
// ((outstanding + cost) / effective rate). It returns (-1, false) when
// every device is out of rotation — the caller falls back to unrouted
// (host) capacity. One router tick passes per call so drained devices
// age toward their probes even between sweeps.
func (r *Router) Lease(cost int64) (int, bool) {
	if cost < 0 {
		cost = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tick++
	r.expireHoldsLocked()
	best, bestScore := -1, math.Inf(1)
	for i := range r.h {
		h := &r.h[i]
		if !h.state.InRotation() {
			continue
		}
		eff := 1 / h.perZone
		switch h.state {
		case Suspect:
			eff *= h.score
		case Probing:
			// A probing device gets trial work at token weight so one
			// success can undrain it without re-absorbing full load.
			eff *= 0.1
		}
		score := (float64(h.outstanding) + float64(cost)) / eff
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return -1, false
	}
	r.h[best].outstanding += cost
	r.C.Leases.Add(1)
	return best, true
}

// Release returns a leased placement. A failed segment feeds the fault
// penalty into the device's health (possibly draining it); a clean one
// nudges the score back up and undrains a probing device.
func (r *Router) Release(i int, cost int64, failed bool) {
	if cost < 0 {
		cost = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.h) {
		return
	}
	h := &r.h[i]
	h.outstanding -= cost
	if h.outstanding < 0 {
		h.outstanding = 0
	}
	if h.state == Dead {
		return
	}
	if failed {
		r.C.LeaseFaults.Add(1)
		h.faults++
		h.score *= faultPenalty
		if h.state == Probing {
			r.redrainLocked(h)
			return
		}
		r.advanceLocked(i)
		return
	}
	if h.state == Probing {
		r.undrainLocked(h)
		return
	}
	h.score += scoreAlpha * (1 - h.score) * 0.5
	r.advanceLocked(i)
}

// DeviceName returns device i's spec name.
func (r *Router) DeviceName(i int) string { return r.devs[i].Spec.Name }

// EquivalentCapacity returns the fleet's current effective capacity in
// reference-core units (see Fingerprint.ThroughputX): the sum of each
// in-rotation device's observed rate × health factor. Drained capacity
// is excluded — the substitution headroom reports track.
func (r *Router) EquivalentCapacity() float64 {
	weights := make([]float64, len(r.devs))
	r.planWeights(weights, make([]float64, len(r.devs)), nil)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	return total / refCoreRate
}

// DeviceHealth is one device's health snapshot for reports and JSON.
type DeviceHealth struct {
	Name    string  `json:"name"`
	State   string  `json:"state"`
	Score   float64 `json:"score"`
	ObsMzps float64 `json:"obs_mzps"` // observed effective rate, Mzones/s
	Faults  int64   `json:"faults"`
	Drains  int64   `json:"drains"`
}

// HealthReport snapshots every device's health, ordered as the devices
// were given.
func (r *Router) HealthReport() []DeviceHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DeviceHealth, len(r.devs))
	for i := range r.h {
		h := &r.h[i]
		out[i] = DeviceHealth{
			Name:    r.devs[i].Spec.Name,
			State:   h.state.String(),
			Score:   h.score,
			ObsMzps: 1 / h.perZone / 1e6,
			Faults:  h.faults,
			Drains:  h.drains,
		}
	}
	return out
}
