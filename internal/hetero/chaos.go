package hetero

// Chaos harness: a deterministic, phase-keyed fault schedule for the
// executor. Every event is a pure function of the phase counter (one
// phase per RHS evaluation of an attached solver) —
// no wall clocks, no randomness — so a chaos run is exactly reproducible
// and, because kernels always execute for correctness on the host, its
// solution is bitwise identical to a fault-free run. Chaos perturbs only
// the virtual clocks, the health scores, and the placement.
//
// Three event kinds cover the failure modes the router must survive:
//
//   - DeviceDeath: fail-stop loss. The device's next launch at or after
//     Phase errors; the executor charges the wasted launch plus a
//     bounded exponential-backoff retry series, reroutes the in-flight
//     tiles to the earliest-finishing live device, and the router marks
//     the device Dead (permanently out of rotation). It is the only
//     fail-stop injection.
//
//   - LatencySpike: the device's observed per-zone latency is multiplied
//     by Factor for Duration phases (0 = until the end of the run). The
//     planner still sees nominal specs — only the health model, fed by
//     observed latencies, can notice and drain the straggler.
//
//   - LatencyFlap: the multiplier toggles between Factor and 1 every
//     Period phases, modelling a device that recovers just long enough
//     to be re-admitted and then degrades again. A flap faster than the
//     router's health window triggers quarantine.
type ChaosSchedule struct {
	Events []ChaosEvent

	// FlakyRetries is the number of extra failed re-launch attempts
	// charged per device death before the reroute lands (default 2).
	FlakyRetries int
	// RetryBackoff is the base virtual backoff per retry, doubled per
	// attempt (default 100 µs).
	RetryBackoff float64
}

// ChaosKind discriminates chaos events.
type ChaosKind int

// Chaos event kinds.
const (
	DeviceDeath ChaosKind = iota
	LatencySpike
	LatencyFlap
)

// String implements fmt.Stringer.
func (k ChaosKind) String() string {
	switch k {
	case DeviceDeath:
		return "death"
	case LatencySpike:
		return "spike"
	default:
		return "flap"
	}
}

// ChaosEvent is one scheduled perturbation of one device.
type ChaosEvent struct {
	Kind   ChaosKind
	Device int   // index into Executor.Devices
	Phase  int64 // phase at which the event begins

	// Duration bounds a LatencySpike in phases; 0 means it lasts until
	// the end of the run. Ignored for DeviceDeath and LatencyFlap.
	Duration int64
	// Factor is the observed-latency multiplier for LatencySpike and the
	// degraded half of LatencyFlap (values <= 1 are treated as no-op).
	Factor float64
	// Period is the LatencyFlap half-period in phases: the device runs
	// degraded for Period phases, clean for Period phases, and so on
	// (default 4).
	Period int64
}

// slowdownAt returns the combined latency multiplier for a device at a
// phase: overlapping spike/flap events multiply.
func (c *ChaosSchedule) slowdownAt(dev int, phase int64) float64 {
	slow := 1.0
	for _, ev := range c.Events {
		if ev.Device != dev || phase < ev.Phase || ev.Factor <= 1 {
			continue
		}
		switch ev.Kind {
		case LatencySpike:
			if ev.Duration <= 0 || phase < ev.Phase+ev.Duration {
				slow *= ev.Factor
			}
		case LatencyFlap:
			period := ev.Period
			if period <= 0 {
				period = 4
			}
			if (phase-ev.Phase)/period%2 == 0 {
				slow *= ev.Factor
			}
		}
	}
	return slow
}

// retryParams returns the base backoff and retry count for a death's
// bounded reroute, with defaults applied. Safe on a nil schedule.
func (c *ChaosSchedule) retryParams() (backoff float64, retries int) {
	backoff, retries = 1e-4, 2
	if c == nil {
		return backoff, retries
	}
	if c.RetryBackoff > 0 {
		backoff = c.RetryBackoff
	}
	if c.FlakyRetries > 0 {
		retries = c.FlakyRetries
	}
	return backoff, retries
}

// applyChaosPhase applies the schedule's latency multipliers for the
// phase to the device clocks and returns the devices whose fail-stop
// death fires now (first phase at or past the event's Phase on a device
// not yet dead). The dying devices still appear in this phase's plan:
// the executor discovers the death through the failed launch and
// reroutes (rerouteDead).
func (ex *Executor) applyChaosPhase(phase int64) []int {
	c := ex.Chaos
	if c == nil {
		return nil
	}
	for i, d := range ex.Devices {
		d.SetSlowdown(c.slowdownAt(i, phase))
	}
	var newly []int
	for _, ev := range c.Events {
		if ev.Kind != DeviceDeath || ev.Device < 0 || ev.Device >= len(ex.Devices) {
			continue
		}
		if phase >= ev.Phase && !ex.router.Dead(ev.Device) {
			newly = append(newly, ev.Device)
		}
	}
	return newly
}
