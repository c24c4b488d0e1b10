package hetero

import "sort"

// Fixtures and read paths only the tests use.

// MustDevice is NewDevice for statically known-good specs; it panics on
// a spec NewDevice rejects.
func MustDevice(s Spec) *Device {
	d, err := NewDevice(s)
	if err != nil {
		panic(err)
	}
	return d
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

// State returns device i's drain state.
func (r *Router) State(i int) DevState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.h[i].state
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
