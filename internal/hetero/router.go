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

// HealthConfig tunes the router's health model and drain state machine.
// The zero value selects the documented defaults (DefaultHealthConfig).
type HealthConfig struct {
	// Alpha is the EWMA weight of a new per-zone latency sample (0.4).
	Alpha float64
	// ScoreAlpha is the EWMA weight pulling the health score toward its
	// target after each observation (0.5).
	ScoreAlpha float64
	// SuspectBelow demotes Healthy → Suspect (0.7); RecoverAbove promotes
	// Suspect → Healthy (0.85); DrainBelow drains (0.35).
	SuspectBelow float64
	RecoverAbove float64
	DrainBelow   float64
	// StragglerFactor flags a device whose observed slowdown (per-zone
	// latency over its fingerprint's nominal) exceeds this multiple of
	// the fleet median slowdown (2.0).
	StragglerFactor float64
	// ProbeAfter is the hold, in router ticks, before a drained device is
	// probed (6); each failed probe doubles the device's hold.
	ProbeAfter int64
	// ProbeStrips is the probe kernel size in tiles, the executor's work
	// unit (1).
	ProbeStrips int
	// FlapWindow/FlapLimit: FlapLimit-th drain within FlapWindow ticks
	// quarantines the device (window 32, limit 3).
	FlapWindow int64
	FlapLimit  int
	// QuarantineHold is the base quarantine length in ticks (64); it
	// doubles on every further quarantine of the same device.
	QuarantineHold int64
	// FaultPenalty multiplies the health score on an external fault
	// report (0.25).
	FaultPenalty float64
}

// DefaultHealthConfig returns the documented defaults.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{
		Alpha:           0.4,
		ScoreAlpha:      0.5,
		SuspectBelow:    0.7,
		RecoverAbove:    0.85,
		DrainBelow:      0.35,
		StragglerFactor: 2.0,
		ProbeAfter:      6,
		ProbeStrips:     1,
		FlapWindow:      32,
		FlapLimit:       3,
		QuarantineHold:  64,
		FaultPenalty:    0.25,
	}
}

// withDefaults fills zero fields.
func (c HealthConfig) withDefaults() HealthConfig {
	d := DefaultHealthConfig()
	if c.Alpha <= 0 {
		c.Alpha = d.Alpha
	}
	if c.ScoreAlpha <= 0 {
		c.ScoreAlpha = d.ScoreAlpha
	}
	if c.SuspectBelow <= 0 {
		c.SuspectBelow = d.SuspectBelow
	}
	if c.RecoverAbove <= 0 {
		c.RecoverAbove = d.RecoverAbove
	}
	if c.DrainBelow <= 0 {
		c.DrainBelow = d.DrainBelow
	}
	if c.StragglerFactor <= 0 {
		c.StragglerFactor = d.StragglerFactor
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = d.ProbeAfter
	}
	if c.ProbeStrips <= 0 {
		c.ProbeStrips = d.ProbeStrips
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = d.FlapWindow
	}
	if c.FlapLimit <= 0 {
		c.FlapLimit = d.FlapLimit
	}
	if c.QuarantineHold <= 0 {
		c.QuarantineHold = d.QuarantineHold
	}
	if c.FaultPenalty <= 0 {
		c.FaultPenalty = d.FaultPenalty
	}
	return c
}

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

	cfg  HealthConfig
	mu   sync.Mutex
	devs []*Device
	h    []devHealth
	tick int64
	own  metrics.RouterCounters
}

// NewRouter builds a router over the device set with the given config
// (zero fields take defaults).
func NewRouter(cfg HealthConfig, devices ...*Device) *Router {
	r := &Router{cfg: cfg.withDefaults(), devs: devices}
	r.C = &r.own
	r.h = make([]devHealth, len(devices))
	r.reset()
	return r
}

// Config returns the router's resolved health configuration.
func (r *Router) Config() HealthConfig { return r.cfg }

// reset reinitialises every device to Healthy/nominal. Caller holds no
// lock (construction) or r.mu (Reset).
func (r *Router) reset() {
	for i := range r.h {
		r.h[i] = devHealth{
			state:   Healthy,
			score:   1,
			slow:    1,
			perZone: 1 / r.devs[i].Spec.ZoneRate,
			hold:    r.cfg.ProbeAfter,
			qhold:   r.cfg.QuarantineHold,
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

// State returns device i's drain state.
func (r *Router) State(i int) DevState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.h[i].state
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

// Fault feeds an external fault report (a failed lease, a kernel launch
// error) into device i's health: the score takes the fault penalty and
// the state machine advances, possibly draining the device.
func (r *Router) Fault(i int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := &r.h[i]
	if h.state == Dead {
		return
	}
	h.faults++
	h.score *= r.cfg.FaultPenalty
	r.advanceLocked(i)
}

// EffPerZone returns device i's effective per-zone latency: the observed
// EWMA when samples exist, the fingerprint's nominal otherwise. Plans
// built on it adapt to effective — not nominal — speed.
func (r *Router) EffPerZone(i int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.h[i].perZone
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
	inst := make(map[int]float64, len(obs))
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
			h.perZone += r.cfg.Alpha * (perZone - h.perZone)
			h.slow += r.cfg.Alpha * (slow - h.slow)
		}
		h.samples++
		inst[o.Dev] = slow // instantaneous slowdown vs fingerprint
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
		slow, ok := inst[o.Dev]
		if !ok {
			continue
		}
		rel := slow / med
		if h.state == Probing {
			// Probe verdict on the instantaneous sample alone.
			if rel < r.cfg.StragglerFactor {
				h.state = Healthy
				h.score = 1
				h.slow = slow // adopt the clean rate
				h.perZone = slow / r.devs[o.Dev].Spec.ZoneRate
				h.hold = r.cfg.ProbeAfter
				r.C.Undrains.Add(1)
			} else {
				h.hold *= 2
				h.state = Drained
				h.probeAt = r.tick + h.hold
			}
			continue
		}
		target := 1.0
		if rel > r.cfg.StragglerFactor {
			target = 1 / rel
		}
		h.score += r.cfg.ScoreAlpha * (target - h.score)
		r.advanceLocked(o.Dev)
	}

	// Hold expiry: drained/quarantined devices come up for a probe.
	for i := range r.h {
		h := &r.h[i]
		if (h.state == Drained || h.state == Quarantined) && r.tick >= h.probeAt {
			h.state = Probing
			r.C.Probes.Add(1)
		}
	}
}

// medianSlowdownLocked returns the fleet-median observed slowdown
// (busy time over nominal expected cost) across live devices with
// samples; 1 when nothing has been observed yet.
func (r *Router) medianSlowdownLocked() float64 {
	var slows []float64
	for i := range r.h {
		h := &r.h[i]
		if h.state == Dead || h.samples == 0 {
			continue
		}
		slows = append(slows, h.slow)
	}
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
		if h.score < r.cfg.DrainBelow {
			r.drainLocked(i)
		} else if h.score < r.cfg.SuspectBelow {
			h.state = Suspect
		}
	case Suspect:
		if h.score < r.cfg.DrainBelow {
			r.drainLocked(i)
		} else if h.score > r.cfg.RecoverAbove {
			h.state = Healthy
		}
	}
}

// drainLocked takes device i out of rotation and runs the flap detector:
// the FlapLimit-th drain within FlapWindow ticks quarantines it with an
// exponentially growing hold. Caller holds r.mu.
func (r *Router) drainLocked(i int) {
	h := &r.h[i]
	h.drains++
	r.C.Drains.Add(1)

	// Flap detection over the trailing window.
	h.flaps = append(h.flaps, r.tick)
	live := h.flaps[:0]
	for _, t := range h.flaps {
		if r.tick-t < r.cfg.FlapWindow {
			live = append(live, t)
		}
	}
	h.flaps = live
	if len(h.flaps) >= r.cfg.FlapLimit {
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

// planWeights returns the routed planner's inputs: per-device capacity
// weights (observed zone rate × health factor; zero for devices out of
// rotation) and the devices due a probe kernel this plan. The weights
// encode equivalent-capacity substitution — when a fast device drains,
// its share redistributes across the remaining fleet in proportion to
// effective capacity, so two half-speed devices absorb what one
// full-speed device dropped.
func (r *Router) planWeights() (weights []float64, probes []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	weights = make([]float64, len(r.devs))
	for i := range r.h {
		h := &r.h[i]
		switch h.state {
		case Healthy:
			weights[i] = 1 / h.perZone
		case Suspect:
			weights[i] = h.score / h.perZone
		case Probing:
			probes = append(probes, i)
		}
	}
	return weights, probes
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
	for i := range r.h {
		h := &r.h[i]
		if (h.state == Drained || h.state == Quarantined) && r.tick >= h.probeAt {
			h.state = Probing
			r.C.Probes.Add(1)
		}
	}
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
		h.score *= r.cfg.FaultPenalty
		if h.state == Probing {
			h.hold *= 2
			h.state = Drained
			h.probeAt = r.tick + h.hold
			return
		}
		r.advanceLocked(i)
		return
	}
	if h.state == Probing {
		h.state = Healthy
		h.score = 1
		h.hold = r.cfg.ProbeAfter
		r.C.Undrains.Add(1)
		return
	}
	h.score += r.cfg.ScoreAlpha * (1 - h.score) * 0.5
	r.advanceLocked(i)
}

// DeviceName returns device i's spec name.
func (r *Router) DeviceName(i int) string { return r.devs[i].Spec.Name }

// Devices returns the routed device set (shared slice; do not mutate).
func (r *Router) Devices() []*Device { return r.devs }

// EquivalentCapacity returns the fleet's current effective capacity in
// reference-core units (see Fingerprint.ThroughputX): the sum of each
// in-rotation device's observed rate × health factor. Drained capacity
// is excluded — the substitution headroom reports track.
func (r *Router) EquivalentCapacity() float64 {
	weights, _ := r.planWeights()
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
