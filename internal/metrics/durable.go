package metrics

import "sync/atomic"

// DurableCounters is the durable checkpoint store's event record:
// commit-protocol activity (commits, fsyncs, renames) and every
// integrity event the recovery and scrub paths observe. The serving
// layer, the rhscd status surface and the E18 durability experiment all
// read the same counters. Every field is atomic with the usual
// contract (individual loads are atomic, Snapshot is not a single
// linearisation point — same as ServeCounters).
//
// The zero value is ready to use. Do not copy a DurableCounters after
// first use.
type DurableCounters struct {
	Commits     atomic.Int64 // generations committed (payload fsynced, renamed, directory fsynced)
	CommitBytes atomic.Int64 // framed payload bytes across all commits
	Fsyncs      atomic.Int64 // file and directory fsyncs issued by the commit protocol
	Renames     atomic.Int64 // atomic publish renames

	Recoveries         atomic.Int64 // loads that had to skip past >= 1 invalid newer generation
	SkippedGenerations atomic.Int64 // invalid generations skipped during those recoveries

	DetectedCorruptions atomic.Int64 // frames rejected by CRC/footer/structure verification
	Quarantined         atomic.Int64 // corrupt files moved aside to <dir>/corrupt/
	ScrubFailures       atomic.Int64 // scrub passes that found at least one bad file
}

// DurableSnapshot is a plain-value copy of DurableCounters for reports
// and JSON serialisation. Field names carry a durable_ prefix so the
// snapshot can be merged flat into the serving metrics endpoint without
// colliding with ServeSnapshot.
type DurableSnapshot struct {
	Commits     int64 `json:"durable_commits"`
	CommitBytes int64 `json:"durable_commit_bytes"`
	Fsyncs      int64 `json:"durable_fsyncs"`
	Renames     int64 `json:"durable_renames"`

	Recoveries         int64 `json:"durable_recoveries"`
	SkippedGenerations int64 `json:"durable_skipped_generations"`

	DetectedCorruptions int64 `json:"durable_detected_corruptions"`
	Quarantined         int64 `json:"durable_quarantined"`
	ScrubFailures       int64 `json:"durable_scrub_failures"`
}

// Snapshot returns the current counter values.
func (c *DurableCounters) Snapshot() DurableSnapshot {
	return DurableSnapshot{
		Commits:             c.Commits.Load(),
		CommitBytes:         c.CommitBytes.Load(),
		Fsyncs:              c.Fsyncs.Load(),
		Renames:             c.Renames.Load(),
		Recoveries:          c.Recoveries.Load(),
		SkippedGenerations:  c.SkippedGenerations.Load(),
		DetectedCorruptions: c.DetectedCorruptions.Load(),
		Quarantined:         c.Quarantined.Load(),
		ScrubFailures:       c.ScrubFailures.Load(),
	}
}
