package metrics

import "sync/atomic"

// FaultCounters aggregates resilience events across the stack: injected
// faults, step/kernel retries, first-order fallback engagements,
// fail-safe troubled-cell repairs, and rank/device recoveries. Every
// field is atomic, so producers on concurrent goroutines (pool workers,
// per-rank drivers, device models) may increment without locking;
// Snapshot gives a consistent-enough view for reporting (individual
// loads are atomic, the set is not a single linearisation point — same
// contract as c2p.Stats).
//
// The zero value is ready to use. Do not copy a FaultCounters after
// first use.
type FaultCounters struct {
	Injected   atomic.Int64 // faults injected by a harness
	Retries    atomic.Int64 // step or kernel re-executions after a violation
	Fallbacks  atomic.Int64 // retries that engaged the first-order fallback
	Recoveries atomic.Int64 // completed rank/device recoveries
	// Troubled and Repaired count cells flagged by the a posteriori
	// fail-safe detector and cells its local flux-replacement repair
	// re-updated (see docs/RESILIENCE.md, "Local repair").
	Troubled atomic.Int64
	Repaired atomic.Int64
	// Demotions counts fail-safe steps demoted to the global retry path —
	// the troubled fraction exceeded core.Config.FailSafeMaxFrac, or the local
	// repair itself failed.
	Demotions atomic.Int64
	// FallbackZones counts zone updates computed at the dissipative
	// fallback order: the whole interior per stage during a global
	// first-order retry, but only the repaired cells under the fail-safe —
	// the time-to-solution currency the failsafe benchmark (E15) compares.
	FallbackZones atomic.Int64
	Degraded      atomic.Bool // a component is permanently excluded (device lost, rank down)
}

// FaultSnapshot is a plain-value copy of FaultCounters for reports and
// JSON serialisation.
type FaultSnapshot struct {
	Injected      int64 `json:"injected"`
	Retries       int64 `json:"retries"`
	Fallbacks     int64 `json:"fallbacks"`
	Recoveries    int64 `json:"recoveries"`
	Troubled      int64 `json:"troubled"`
	Repaired      int64 `json:"repaired"`
	Demotions     int64 `json:"demotions"`
	FallbackZones int64 `json:"fallback_zones"`
	Degraded      bool  `json:"degraded"`
}

// Reset zeroes every counter (FaultCounters cannot be copied, so
// clock-reset paths clear it in place).
func (f *FaultCounters) Reset() {
	f.Injected.Store(0)
	f.Retries.Store(0)
	f.Fallbacks.Store(0)
	f.Recoveries.Store(0)
	f.Troubled.Store(0)
	f.Repaired.Store(0)
	f.Demotions.Store(0)
	f.FallbackZones.Store(0)
	f.Degraded.Store(false)
}

// Snapshot returns the current counter values.
func (f *FaultCounters) Snapshot() FaultSnapshot {
	return FaultSnapshot{
		Injected:      f.Injected.Load(),
		Retries:       f.Retries.Load(),
		Fallbacks:     f.Fallbacks.Load(),
		Recoveries:    f.Recoveries.Load(),
		Troubled:      f.Troubled.Load(),
		Repaired:      f.Repaired.Load(),
		Demotions:     f.Demotions.Load(),
		FallbackZones: f.FallbackZones.Load(),
		Degraded:      f.Degraded.Load(),
	}
}
