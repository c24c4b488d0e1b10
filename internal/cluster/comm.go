// Package cluster is the distributed-memory substrate of the solver:
// ranks, point-to-point messaging, collectives, one-dimensional domain
// decomposition with halo exchange, and a virtual network model.
//
// Substitution note (see DESIGN.md): the paper ran on an MPI cluster; in
// pure Go, ranks are goroutines and the transport is channels. What
// determines the scaling curves — halo volume, message counts,
// surface-to-volume ratios, exposure (or overlap) of communication
// latency — is preserved exactly. Wall-clock speedup is real up to the
// host's core count; beyond it, the deterministic virtual clock (compute
// charged at a calibrated zone rate, messages charged latency + size/BW,
// timestamps carried on messages) extrapolates the curve shape, which is
// what the strong/weak scaling experiments (E5, E6) report.
//
// The default world of NewWorld is a perfect in-order fabric; see
// transport.go for the lossy-fabric variant (deterministic chaos
// injection, reliable seq/CRC/ack/retransmit framing, deadline-bounded
// receives).
package cluster

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rhsc/internal/durable"
	"rhsc/internal/metrics"
)

// message is the unit of transport: payload plus the sender's virtual
// timestamp at posting time. The seq/era/crc header fields are used only
// by the reliable transport (reliable.go); a default world leaves them
// zero.
type message struct {
	tag  int
	data []float64
	// stamp is the sender's virtual clock when the send was posted.
	stamp float64
	// seq is the per-(src,dst) sequence number (1-based) in reliable mode.
	seq uint64
	// era is the sender's recovery era; receivers discard (after
	// acknowledging) frames from before their own era.
	era uint64
	// crc is the CRC32C of the payload bit patterns in reliable mode.
	crc uint32
}

// World owns the mailboxes of a set of ranks.
type World struct {
	size  int
	boxes [][]chan message // boxes[src][dst]
	// Fault-injection state (see fault.go): failed[r] is set by Kill(r)
	// before down[r] is closed, so any observer woken by the close sees
	// the flag. Mailboxes of a dead rank are never closed — a send to a
	// closed channel would panic the (innocent) sender; buffered messages
	// a dead rank posted before dying remain receivable.
	failed []atomic.Bool
	down   []chan struct{}
	killed []sync.Once

	// Lossy-transport state (see transport.go); all nil/zero for a
	// default world.
	tc        *TransportConfig
	net       *metrics.TransportCounters // every transport event
	chaos     *chaosNet
	rel       *reliableState
	alarms    alarm
	closeOnce sync.Once
}

// mailboxDepth is the buffer depth of each pairwise mailbox. Every
// protocol in this repository posts a bounded number of sends to any
// single peer before turning around and receiving: the uniform-grid halo
// exchange posts at most four face messages per stage (two of which can
// target the same peer only on tiny periodic worlds), the collectives
// post at most two, and the distributed-AMR exchange batches everything
// for a peer into one message per phase. A send therefore never finds
// more than four messages already in flight to the same peer, so a depth
// of eight means Send never blocks mid-protocol and no cyclic
// send-waits-for-send deadlock can form. A receiver blocked in Recv
// additionally drains mismatched tags into its pending stash (see Recv),
// so even bursts of many distinct tags cannot wedge the pair —
// TestDeepTagExchange pins this down.
const mailboxDepth = 8

// NewWorld creates a world of n ranks with buffered pairwise mailboxes
// over a perfect fabric (no loss, no deadlines; Recv still surfaces
// ErrRankFailed when the peer is killed).
func NewWorld(n int) *World { return newWorld(n, nil) }

// newWorld is the shared constructor; tc is nil for a default world and
// a normalized config for a transport world (NewWorldTransport).
func newWorld(n int, tc *TransportConfig) *World {
	if n < 1 {
		panic("cluster: world needs at least one rank")
	}
	depth := mailboxDepth
	if tc != nil && tc.Reliable {
		depth = reliableDepth
	}
	w := &World{
		size:   n,
		boxes:  make([][]chan message, n),
		failed: make([]atomic.Bool, n),
		down:   make([]chan struct{}, n),
		killed: make([]sync.Once, n),
		tc:     tc,
	}
	if tc != nil {
		w.net = &metrics.TransportCounters{}
	}
	for s := 0; s < n; s++ {
		w.boxes[s] = make([]chan message, n)
		w.down[s] = make(chan struct{})
		for d := 0; d < n; d++ {
			w.boxes[s][d] = make(chan message, depth)
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Comm returns rank r's communicator.
func (w *World) Comm(r int) *Comm {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("cluster: rank %d outside world of %d", r, w.size))
	}
	c := &Comm{w: w, rank: r, pending: make(map[int][]message)}
	if w.rel != nil {
		c.expect = make([]uint64, w.size)
		for i := range c.expect {
			c.expect[i] = 1 // sequence numbers are 1-based
		}
		c.ooo = make([]map[uint64]message, w.size)
		for i := range c.ooo {
			c.ooo[i] = map[uint64]message{}
		}
	}
	return c
}

// Comm is one rank's endpoint. A Comm must only be used from its own
// rank's goroutine.
type Comm struct {
	w    *World
	rank int
	// pending stashes messages that arrived ahead of the tag being waited
	// on (a pair can interleave halo tags, e.g. two-rank periodic rings).
	pending map[int][]message
	// Reliable-mode receive state (nil on a default world): era is this
	// rank's recovery era (stamped on outgoing frames, frames below it are
	// discarded after acknowledging), expect[src] the next in-order
	// sequence number, ooo[src] the reorder buffer of early frames.
	era    uint64
	expect []uint64
	ooo    []map[uint64]message
	// alarmSeen is the alarm generation this rank has already processed
	// (see AckAlarm in fault.go).
	alarmSeen uint64
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// SetEra moves this rank into recovery era e (no-op unless e > era):
// frames it sends from now on carry the new era, frames from before it
// (in flight, stashed, or retransmitted later) are acknowledged and
// discarded. Survivors derive e from lockstep-agreed state (alarm
// generation + shrink count in the damr driver), so all of them land on
// the same era even when they unwind at different points; without the
// era filter, traffic from the aborted protocol phase could contaminate
// the replay.
func (c *Comm) SetEra(e uint64) {
	if e <= c.era {
		return
	}
	c.era = e
	for src, q := range c.pending {
		kept := q[:0]
		for _, m := range q {
			if m.era >= c.era {
				kept = append(kept, m)
			}
		}
		c.pending[src] = kept
	}
}

// AdvanceEra moves this rank into the next recovery era (SetEra(era+1)).
func (c *Comm) AdvanceEra() { c.SetEra(c.era + 1) }

// Send posts data to dst with a tag and the sender's virtual timestamp.
// Delivery is in-order per (src, dst) pair. The payload is not copied; the
// sender must not mutate it until the receiver is known to have consumed
// it (the protocols above guarantee this with double-buffered pools).
func (c *Comm) Send(dst, tag int, data []float64, stamp float64) {
	if c.w.rel != nil {
		c.w.rel.post(c.rank, dst, message{tag: tag, data: data, stamp: stamp, era: c.era})
		return
	}
	c.w.boxes[c.rank][dst] <- message{tag: tag, data: data, stamp: stamp}
}

// Recv blocks for the next message from src carrying the given tag.
// Messages from src with other tags are stashed and delivered to later
// matching Recv calls, preserving per-tag FIFO order.
//
// Recv never hangs on a dead peer: once src has been killed and
// everything it sent (or, in reliable mode, could still retransmit) has
// been drained, Recv returns ErrRankFailed. On a transport world with a
// configured RecvDeadline the wait is additionally time-bounded and
// surfaces ErrTimeout. It is the receive of the non-fault-tolerant
// protocols, which have no exclusion protocol to hand a timeout to;
// everything that must survive a peer failure uses FTRecv (fault.go).
func (c *Comm) Recv(src, tag int) ([]float64, float64, error) {
	return c.recvTagged(src, tag, c.w.RecvDeadline(), false)
}

// recvTagged is the tag-matching layer over recvMsg: scan the stash,
// then pull messages (stashing mismatched tags) until one matches.
func (c *Comm) recvTagged(src, tag int, d time.Duration, intr bool) ([]float64, float64, error) {
	for i, m := range c.pending[src] {
		if m.tag == tag {
			c.pending[src] = append(c.pending[src][:i], c.pending[src][i+1:]...)
			return m.data, m.stamp, nil
		}
	}
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	for {
		m, err := c.recvMsg(src, deadline, intr)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: rank %d (tag %d)", err, src, tag)
		}
		if m.tag == tag {
			return m.data, m.stamp, nil
		}
		c.pending[src] = append(c.pending[src], m)
	}
}

// recvMsg pulls the next deliverable message from src: the next frame on
// a default world, the next in-sequence fresh-era frame on a reliable
// world. With intr set the wait also ends, with ErrInterrupted, once the
// world alarm generation has moved past the one this rank acknowledged
// (AckAlarm). It returns bare sentinel errors (ErrRankFailed, ErrTimeout,
// ErrInterrupted); recvTagged adds context.
func (c *Comm) recvMsg(src int, deadline time.Time, intr bool) (message, error) {
	w := c.w
	box := w.boxes[src][c.rank]
	rel := w.rel != nil
	nc := w.net
	for {
		if intr {
			if _, gen := w.alarms.state(); gen != c.alarmSeen {
				if nc != nil {
					nc.Interrupts.Add(1)
				}
				return message{}, ErrInterrupted
			}
		}
		if rel {
			// Serve the reorder buffer before pulling the mailbox.
			if m, ok := c.ooo[src][c.expect[src]]; ok {
				delete(c.ooo[src], c.expect[src])
				c.expect[src]++
				c.postAck(src)
				if m.era < c.era {
					nc.StaleEraDropped.Add(1)
					continue
				}
				nc.Delivered.Add(1)
				return m, nil
			}
		}
		var m message
		gotMsg := false
		select {
		case m = <-box:
			gotMsg = true
		default:
		}
		if !gotMsg {
			srcDead := w.Failed(src)
			if srcDead && !(rel && w.rel.hasPending(src, c.rank)) {
				// Dead, mailbox drained, nothing left to retransmit.
				if nc != nil {
					nc.PeerDeaths.Add(1)
				}
				return message{}, ErrRankFailed
			}
			downCh := w.down[src]
			if srcDead {
				// Already woken once; selecting on the closed channel
				// would spin. The retransmitter (still pending) pushes to
				// the mailbox, so wait on it with a short poll instead.
				downCh = nil
			}
			var alarmCh chan struct{}
			if intr {
				alarmCh, _ = w.alarms.state() // generation checked above
			}
			wait := time.Duration(-1)
			if !deadline.IsZero() {
				wait = time.Until(deadline)
				if wait <= 0 {
					return message{}, c.deadlineError(src, nc)
				}
			}
			if srcDead && rel {
				if poll := 4 * w.tc.RTO; wait < 0 || wait > poll {
					wait = poll // recheck hasPending after abandonment
				}
			}
			var timer *time.Timer
			var timerC <-chan time.Time
			if wait >= 0 {
				timer = time.NewTimer(wait)
				timerC = timer.C
			}
			interrupted, fired := false, false
			select {
			case m = <-box:
				gotMsg = true
			case <-downCh:
				// Loop back: next iteration sees Failed(src).
			case <-alarmCh:
				interrupted = true
			case <-timerC:
				fired = true
			}
			if timer != nil {
				timer.Stop()
			}
			if interrupted {
				if nc != nil {
					nc.Interrupts.Add(1)
				}
				return message{}, ErrInterrupted
			}
			if fired && !deadline.IsZero() && !time.Now().Before(deadline) {
				return message{}, c.deadlineError(src, nc)
			}
			if !gotMsg {
				continue // poll tick or down wake-up
			}
		}
		if !rel {
			return m, nil
		}
		// Reliable reassembly. Duplicates are discarded before the CRC
		// check (a retransmit of an already-consumed frame may carry a
		// since-recycled buffer; it only needs re-acknowledging). In-order
		// and early frames must pass the CRC before they can advance the
		// window or enter the reorder buffer; a rejected frame is simply
		// not acknowledged and retransmission repairs it.
		e := c.expect[src]
		switch {
		case m.seq < e:
			nc.DupDiscarded.Add(1)
			c.postAck(src)
		case durable.CRCWords(m.data) != m.crc:
			nc.CrcRejected.Add(1)
		case m.seq > e:
			c.ooo[src][m.seq] = m
		default: // m.seq == e, CRC ok
			c.expect[src] = e + 1
			c.postAck(src)
			if m.era < c.era {
				nc.StaleEraDropped.Add(1)
				continue
			}
			nc.Delivered.Add(1)
			return m, nil
		}
	}
}

// deadlineError classifies an expired deadline: if the peer is dead by
// now this is a death, not a timeout.
func (c *Comm) deadlineError(src int, nc *metrics.TransportCounters) error {
	if c.w.Failed(src) {
		if nc != nil {
			nc.PeerDeaths.Add(1)
		}
		return ErrRankFailed
	}
	if nc != nil {
		nc.Timeouts.Add(1)
	}
	return ErrTimeout
}

// Collective tags (kept clear of the halo tags in halo.go).
const (
	tagReduce = 1 << 20
	tagBcast  = 1 << 21
)

// mustRecv unwraps a Recv inside a non-fault-tolerant protocol (the
// plain collectives, the uniform-grid halo exchange). These have no
// exclusion protocol, so a peer failure or timeout mid-protocol is
// unrecoverable by construction; panicking (instead of the pre-transport
// behavior, hanging forever) makes the misuse loud. Fault-injected runs
// must use the FT collectives in fault.go.
func mustRecv(v []float64, s float64, err error) ([]float64, float64) {
	if err != nil {
		panic("cluster: non-fault-tolerant receive cannot proceed: " + err.Error())
	}
	return v, s
}

// AllReduceMin returns the minimum of x across all ranks. Every rank must
// call it (gather-to-0 + broadcast).
func (c *Comm) AllReduceMin(x float64) float64 {
	return c.allReduce(x, math.Min)
}

// AllReduceSum returns the sum of x across all ranks.
func (c *Comm) AllReduceSum(x float64) float64 {
	return c.allReduce(x, func(a, b float64) float64 { return a + b })
}

// AllReduceMax returns the maximum of x across all ranks.
func (c *Comm) AllReduceMax(x float64) float64 {
	return c.allReduce(x, math.Max)
}

func (c *Comm) allReduce(x float64, op func(a, b float64) float64) float64 {
	n := c.Size()
	if n == 1 {
		return x
	}
	if c.rank == 0 {
		acc := x
		for src := 1; src < n; src++ {
			v, _ := mustRecv(c.Recv(src, tagReduce))
			acc = op(acc, v[0])
		}
		for dst := 1; dst < n; dst++ {
			c.Send(dst, tagBcast, []float64{acc}, 0)
		}
		return acc
	}
	c.Send(0, tagReduce, []float64{x}, 0)
	v, _ := mustRecv(c.Recv(0, tagBcast))
	return v[0]
}

// Gather collects each rank's slice on rank 0 in rank order; other ranks
// receive nil.
func (c *Comm) Gather(data []float64) [][]float64 {
	n := c.Size()
	if c.rank != 0 {
		c.Send(0, tagReduce, data, 0)
		return nil
	}
	out := make([][]float64, n)
	out[0] = data
	for src := 1; src < n; src++ {
		v, _ := mustRecv(c.Recv(src, tagReduce))
		out[src] = v
	}
	return out
}

// NetModel charges virtual time to messages: Latency seconds per message
// plus size/Bandwidth. The zero value is an ideal (free) network.
type NetModel struct {
	Latency   float64 // seconds per message
	Bandwidth float64 // bytes per second; <= 0 means infinite
}

// Cost returns the virtual transit time of a message of the given bytes.
func (n NetModel) Cost(bytes int) float64 {
	c := n.Latency
	if n.Bandwidth > 0 {
		c += float64(bytes) / n.Bandwidth
	}
	return c
}

// Arrive returns a receiver's virtual clock once a message of the given
// float64 words, stamped with the sender's clock at posting time, has
// landed: the message is available at stamp plus its transit time, and a
// receiver that is already past that point does not wait.
func (n NetModel) Arrive(clock, stamp float64, words int) float64 {
	if avail := stamp + n.Cost(words*8); avail > clock {
		return avail
	}
	return clock
}

// AllReduceCost returns the modelled virtual cost of one scalar allreduce
// on p ranks: a 2·log2(p) latency tree of 8-byte messages.
func (n NetModel) AllReduceCost(p int) float64 {
	if p <= 1 {
		return 0
	}
	depth := math.Ceil(math.Log2(float64(p)))
	return 2 * depth * n.Cost(8)
}

// GigE returns a gigabit-Ethernet-class model (50 µs, 125 MB/s).
func GigE() NetModel { return NetModel{Latency: 50e-6, Bandwidth: 125e6} }

// Infiniband returns a QDR InfiniBand-class model (2 µs, 4 GB/s) — the
// interconnect class of 2015 heterogeneous clusters.
func Infiniband() NetModel { return NetModel{Latency: 2e-6, Bandwidth: 4e9} }
