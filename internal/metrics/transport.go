package metrics

import "sync/atomic"

// TransportCounters is the reliable-transport event record of the
// cluster fabric: traffic volume, every chaos fault the injector
// applied, every repair the reliable layer performed (retransmits,
// CRC rejections, duplicate discards), and every typed failure the
// deadline layer surfaced (timeouts, peer deaths, alarm interrupts).
// One instance is shared by all ranks of a world; every field is
// atomic with the usual contract (individual loads are atomic,
// Snapshot is not a single linearisation point — same as
// ServeCounters and DurableCounters).
//
// The zero value is ready to use. Do not copy a TransportCounters
// after first use.
type TransportCounters struct {
	Sent      atomic.Int64 // data frames posted by application sends
	SentBytes atomic.Int64 // payload bytes across those frames
	Delivered atomic.Int64 // in-order frames handed to the application
	Acks      atomic.Int64 // cumulative acknowledgements posted

	Retransmits atomic.Int64 // frames re-sent by the retransmitter
	Abandoned   atomic.Int64 // frames given up after MaxAttempts (peer dead)

	ChaosDropped    atomic.Int64 // frames vanished by the injector
	ChaosDuplicated atomic.Int64 // frames delivered twice by the injector
	ChaosDelayed    atomic.Int64 // frames held in limbo behind later traffic
	ChaosCorrupted  atomic.Int64 // frames with a payload bit flipped in transit

	CrcRejected     atomic.Int64 // received frames failing the CRC32C check
	DupDiscarded    atomic.Int64 // already-delivered sequence numbers dropped
	StaleEraDropped atomic.Int64 // frames from before the last recovery dropped
	MailboxOverflow atomic.Int64 // deliveries dropped on a full mailbox (repaired by retransmit)

	Timeouts   atomic.Int64 // deadline-bounded receives that expired
	PeerDeaths atomic.Int64 // receives that surfaced a dead peer
	Interrupts atomic.Int64 // receives woken by a recovery alarm
}

// TransportSnapshot is a plain-value copy of TransportCounters for
// reports and JSON serialisation. Field names carry a net_ prefix so
// the snapshot merges flat into the serving metrics endpoint without
// colliding with ServeSnapshot or DurableSnapshot.
type TransportSnapshot struct {
	Sent      int64 `json:"net_sent"`
	SentBytes int64 `json:"net_sent_bytes"`
	Delivered int64 `json:"net_delivered"`
	Acks      int64 `json:"net_acks"`

	Retransmits int64 `json:"net_retransmits"`
	Abandoned   int64 `json:"net_abandoned"`

	ChaosDropped    int64 `json:"net_chaos_dropped"`
	ChaosDuplicated int64 `json:"net_chaos_duplicated"`
	ChaosDelayed    int64 `json:"net_chaos_delayed"`
	ChaosCorrupted  int64 `json:"net_chaos_corrupted"`

	CrcRejected     int64 `json:"net_crc_rejected"`
	DupDiscarded    int64 `json:"net_dup_discarded"`
	StaleEraDropped int64 `json:"net_stale_era_dropped"`
	MailboxOverflow int64 `json:"net_mailbox_overflow"`

	Timeouts   int64 `json:"net_timeouts"`
	PeerDeaths int64 `json:"net_peer_deaths"`
	Interrupts int64 `json:"net_interrupts"`
}

// Snapshot returns the current counter values.
func (c *TransportCounters) Snapshot() TransportSnapshot {
	return TransportSnapshot{
		Sent:            c.Sent.Load(),
		SentBytes:       c.SentBytes.Load(),
		Delivered:       c.Delivered.Load(),
		Acks:            c.Acks.Load(),
		Retransmits:     c.Retransmits.Load(),
		Abandoned:       c.Abandoned.Load(),
		ChaosDropped:    c.ChaosDropped.Load(),
		ChaosDuplicated: c.ChaosDuplicated.Load(),
		ChaosDelayed:    c.ChaosDelayed.Load(),
		ChaosCorrupted:  c.ChaosCorrupted.Load(),
		CrcRejected:     c.CrcRejected.Load(),
		DupDiscarded:    c.DupDiscarded.Load(),
		StaleEraDropped: c.StaleEraDropped.Load(),
		MailboxOverflow: c.MailboxOverflow.Load(),
		Timeouts:        c.Timeouts.Load(),
		PeerDeaths:      c.PeerDeaths.Load(),
		Interrupts:      c.Interrupts.Load(),
	}
}
