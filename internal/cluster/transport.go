package cluster

// Lossy-fabric transport extensions (see docs/RESILIENCE.md §7). The
// default World of NewWorld is a perfect in-order fabric; a World built
// by NewWorldTransport layers, beneath the unchanged Send/Recv API:
//
//   - a reliable delivery protocol: per-(src,dst) sequence numbers,
//     CRC32C payload checksums, cumulative acknowledgements, and a
//     per-rank retransmitter with exponential backoff — so dropped,
//     duplicated, reordered, delayed, or corrupted frames are repaired
//     below the application and the delivered per-pair stream is
//     byte-identical to a clean run;
//   - deadline-aware receives: every blocking receive is bounded and
//     surfaces typed errors (ErrTimeout, ErrRankFailed, ErrInterrupted)
//     instead of hanging;
//   - a world-wide recovery alarm: the first rank whose fault-tolerant
//     receive (Comm.FTRecv) times out marks the hung peer failed and
//     raises the alarm, which wakes every other blocked FTRecv with
//     ErrInterrupted so the whole world collapses to its recovery
//     protocol without cascading false suspicion;
//   - recovery eras: each Comm carries an era stamped onto its frames;
//     after a recovery every survivor advances its era and the receive
//     path discards (after acknowledging) any frame from before it, so
//     traffic from an aborted protocol phase can never contaminate the
//     replay.

import (
	"errors"
	"sync"
	"time"

	"rhsc/internal/metrics"
)

// Typed receive errors. ErrPeerDead aliases ErrRankFailed (fault.go) so
// existing errors.Is checks keep matching.
var (
	// ErrTimeout reports a deadline-bounded receive that expired with no
	// matching message and no evidence the peer died.
	ErrTimeout = errors.New("cluster: receive deadline exceeded")
	// ErrPeerDead is the lossy-transport name for ErrRankFailed.
	ErrPeerDead = ErrRankFailed
	// ErrInterrupted reports a receive woken by the world alarm: another
	// rank detected a hung peer and every in-flight protocol phase must
	// unwind to its recovery point.
	ErrInterrupted = errors.New("cluster: receive interrupted by recovery alarm")
	// ErrSelfExcluded reports that this rank found itself marked failed —
	// its peers deadlined on it (a partition looks like death from the
	// outside) and excluded it; it must stop participating.
	ErrSelfExcluded = errors.New("cluster: this rank has been excluded from the world")
)

// TransportConfig selects the reliable transport and its knobs. The
// zero value of every field picks a sensible default in normalize.
type TransportConfig struct {
	// Chaos, when non-nil, interposes the deterministic fault injector
	// between senders and mailboxes (chaos.go). Chaos forces Reliable.
	Chaos *ChaosSpec
	// Reliable enables sequence/CRC/ack/retransmit framing even without
	// chaos (it is what masks chaos faults).
	Reliable bool
	// RecvDeadline bounds every blocking receive. <= 0 disables
	// deadlines (receives still wake on peer death). Point-to-point
	// receives in the AMR driver use a multiple of this base deadline so
	// a partitioned rank discovers its own exclusion before it can
	// falsely suspect a live peer (see docs/RESILIENCE.md §7).
	RecvDeadline time.Duration
	// RTO is the initial retransmit timeout; it doubles per attempt up
	// to 64x. Default 1ms.
	RTO time.Duration
}

const (
	// maxAttempts bounds deliveries per frame before the retransmitter
	// abandons it (the peer is presumed dead): far above
	// maxFaultsPerMessage, so a frame to a live peer is always delivered
	// first.
	maxAttempts = 40
	// reliableDepth is the per-pair mailbox depth in reliable mode
	// (duplicates and retransmits need headroom; a transport world
	// without it keeps mailboxDepth). Reliable-mode deliveries drop on a
	// full mailbox and are repaired by retransmission, so depth is a
	// performance knob only.
	reliableDepth = 64
)

// normalize fills defaults, returning a copy.
func (tc TransportConfig) normalize() TransportConfig {
	if tc.Chaos != nil {
		tc.Reliable = true
	}
	if tc.RTO <= 0 {
		tc.RTO = time.Millisecond
	}
	return tc
}

// NewWorldTransport creates a world of n ranks on the configured
// transport. With tc.Chaos set the fabric perturbs frames and the
// reliable layer repairs them; the caller must Close the world when the
// run ends to stop the retransmitter goroutines.
func NewWorldTransport(n int, tc TransportConfig) *World {
	norm := tc.normalize()
	w := newWorld(n, &norm)
	if w.tc.Chaos != nil {
		w.chaos = newChaosNet(n, w.tc.Chaos, w.net)
	}
	if w.tc.Reliable {
		w.rel = newReliableState(w)
	}
	return w
}

// Close stops the transport's background goroutines (the per-rank
// retransmitters). Idempotent; a default world's Close is a no-op.
func (w *World) Close() {
	w.closeOnce.Do(func() {
		if w.rel != nil {
			w.rel.stopAll()
		}
	})
}

// NetCounters returns the world's transport counters (never nil for a
// transport world; nil for a default world).
func (w *World) NetCounters() *metrics.TransportCounters { return w.net }

// RecvDeadline returns the configured base receive deadline (0 for a
// default world).
func (w *World) RecvDeadline() time.Duration {
	if w.tc == nil {
		return 0
	}
	return w.tc.RecvDeadline
}

// alarm is the world-wide revocation signal: Raise closes the current
// channel (waking every receive blocked on it) and bumps the
// generation, so a receive entered after the raise observes the changed
// generation instead. Both reads happen under one lock, so no wake-up
// can be missed.
type alarm struct {
	mu  sync.Mutex
	gen uint64
	ch  chan struct{}
}

func (a *alarm) state() (chan struct{}, uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ch == nil {
		a.ch = make(chan struct{})
	}
	return a.ch, a.gen
}

func (a *alarm) raise() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ch == nil {
		a.ch = make(chan struct{})
	}
	close(a.ch)
	a.ch = make(chan struct{})
	a.gen++
}

// Alarm raises the world-wide recovery alarm: every FTRecv blocked on a
// transport world wakes with ErrInterrupted, and those entered afterwards
// fail immediately until the calling rank acknowledges the new generation
// (Comm.AckAlarm). The detector must Kill the suspect *before* raising
// the alarm so every woken rank computes the same survivor set.
func (w *World) Alarm() { w.alarms.raise() }
