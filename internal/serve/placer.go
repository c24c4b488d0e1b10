package serve

import (
	"sync/atomic"

	"rhsc/internal/hetero"
)

// Placer is the serve layer's placement hook: instead of treating the
// worker pool as flat, anonymous capacity, the server asks the placer
// for a lease before each job segment runs. A placer that tracks device
// health (FleetPlacer over hetero.Router) therefore steers jobs away
// from degraded or drained devices mid-stream — a job that parks on a
// sick device resumes on a healthy one, bit-exactly.
//
// Acquire may refuse (no routed capacity in rotation); the server then
// runs the segment on unrouted host capacity, so placement can only
// improve scheduling, never block it.
type Placer interface {
	Acquire(cost int64) (Lease, bool)
}

// Lease is one granted placement. Release must be called exactly once
// when the segment ends; failed feeds the placer's health model (a
// worker panic or numerical failure counts against the device that
// hosted it, a clean park or completion counts for it).
type Lease interface {
	Device() string
	Release(failed bool)
}

// FleetPlacer adapts the hetero router's lease mode to the serve
// placement hook: each job segment lands on the in-rotation device with
// the least capacity-normalised backlog, failed segments fault the
// device's health score (draining it if it keeps failing), and probing
// devices win token-weight trial segments on their way back into
// rotation.
type FleetPlacer struct {
	R *hetero.Router
}

// NewFleetPlacer routes placements across the given devices with the
// default health model.
func NewFleetPlacer(devices ...*hetero.Device) *FleetPlacer {
	return &FleetPlacer{R: hetero.NewRouter(devices...)}
}

// Acquire implements Placer.
func (p *FleetPlacer) Acquire(cost int64) (Lease, bool) {
	i, ok := p.R.Lease(cost)
	if !ok {
		return nil, false
	}
	return &fleetLease{p: p, dev: i, cost: cost}, true
}

// fleetLease is one routed placement; Release is idempotent so a panic
// path and a normal path cannot double-credit the router.
type fleetLease struct {
	p    *FleetPlacer
	dev  int
	cost int64
	done atomic.Bool
}

// Device implements Lease.
func (l *fleetLease) Device() string { return l.p.R.DeviceName(l.dev) }

// Release implements Lease.
func (l *fleetLease) Release(failed bool) {
	if l.done.CompareAndSwap(false, true) {
		l.p.R.Release(l.dev, l.cost, failed)
	}
}
