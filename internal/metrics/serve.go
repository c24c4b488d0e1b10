package metrics

import "sync/atomic"

// ServeCounters is the job server's single source of truth for serving
// events: the progress API, the E16 load experiment and operator
// tooling all read the same counters. Event fields are monotonic;
// QueueDepth, Parked and BusyWorkers are gauges maintained by the
// scheduler. Every field is atomic, so the HTTP handlers, worker
// goroutines and the admission path may touch them without locking;
// Snapshot gives a consistent-enough view for reporting (individual
// loads are atomic, the set is not a single linearisation point — same
// contract as FaultCounters).
//
// The zero value is ready to use. Do not copy a ServeCounters after
// first use.
type ServeCounters struct {
	Accepted  atomic.Int64 // jobs past admission control into the queue
	Rejected  atomic.Int64 // jobs refused at admission (quota, capacity, validation)
	Preempted atomic.Int64 // running jobs checkpointed and parked for a higher priority
	Resumed   atomic.Int64 // parked jobs restored from their snapshot
	Completed atomic.Int64 // jobs run to their end time or step budget
	Failed    atomic.Int64 // jobs terminated by an absorbed error or panic
	TimedOut  atomic.Int64 // jobs cancelled by the per-job wall-clock watchdog

	QueueDepth  atomic.Int64 // gauge: jobs waiting (queued + parked)
	Parked      atomic.Int64 // gauge: preempted jobs holding a snapshot
	BusyWorkers atomic.Int64 // gauge: workers currently running a job
}

// ServeSnapshot is a plain-value copy of ServeCounters for reports and
// JSON serialisation.
type ServeSnapshot struct {
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Preempted int64 `json:"preempted"`
	Resumed   int64 `json:"resumed"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	TimedOut  int64 `json:"timed_out"`

	QueueDepth  int64 `json:"queue_depth"`
	Parked      int64 `json:"parked"`
	BusyWorkers int64 `json:"busy_workers"`
}

// Snapshot returns the current counter values.
func (c *ServeCounters) Snapshot() ServeSnapshot {
	return ServeSnapshot{
		Accepted:    c.Accepted.Load(),
		Rejected:    c.Rejected.Load(),
		Preempted:   c.Preempted.Load(),
		Resumed:     c.Resumed.Load(),
		Completed:   c.Completed.Load(),
		Failed:      c.Failed.Load(),
		TimedOut:    c.TimedOut.Load(),
		QueueDepth:  c.QueueDepth.Load(),
		Parked:      c.Parked.Load(),
		BusyWorkers: c.BusyWorkers.Load(),
	}
}
