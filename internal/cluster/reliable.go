package cluster

// Reliable delivery beneath Send/Recv: every data frame carries a
// per-(src,dst) sequence number and a CRC32C of its payload; receivers
// deliver in sequence order (discarding duplicates, reassembling
// reorders, rejecting corrupted frames) and post cumulative
// acknowledgements; a per-rank retransmitter goroutine re-sends
// unacknowledged frames with exponential backoff until they are acked
// or abandoned after maxAttempts. The protocol is below the virtual
// clock: stamps ride the frames untouched, so a masked chaos schedule
// reproduces even the modelled timings bitwise.

import (
	"sync"
	"time"

	"rhsc/internal/durable"
)

// ackMsg is a cumulative acknowledgement: every frame from `from` with
// seq <= cum has been delivered in order.
type ackMsg struct {
	from int
	cum  uint64
}

// pendingFrame is an unacknowledged frame awaiting (re)transmission.
type pendingFrame struct {
	m        message
	attempts int
	due      time.Time
}

// senderState is one rank's outbound reliable state.
type senderState struct {
	mu      sync.Mutex
	nextSeq []uint64         // last assigned seq per dst (frames are 1-based)
	out     [][]pendingFrame // unacked frames per dst, seq-ascending
}

type reliableState struct {
	w    *World
	acks []chan ackMsg // one inbound ack channel per rank
	send []*senderState
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

func newReliableState(w *World) *reliableState {
	n := w.size
	rs := &reliableState{
		w:    w,
		acks: make([]chan ackMsg, n),
		send: make([]*senderState, n),
		stop: make(chan struct{}),
	}
	for r := 0; r < n; r++ {
		rs.acks[r] = make(chan ackMsg, 1024)
		rs.send[r] = &senderState{
			nextSeq: make([]uint64, n),
			out:     make([][]pendingFrame, n),
		}
	}
	rs.wg.Add(n)
	for r := 0; r < n; r++ {
		go rs.run(r)
	}
	return rs
}

func (rs *reliableState) stopAll() {
	rs.once.Do(func() { close(rs.stop) })
	rs.wg.Wait()
}

// post assigns the frame its sequence number and CRC, registers it for
// retransmission, and runs the first delivery attempt. Registration
// happens before the attempt, so a receiver that observes the sender
// dead can trust hasPending: false means nothing more is coming.
//
// The payload is copied: the application reuses pooled send buffers
// once its protocol says the receiver is done, but the retransmitter
// may legitimately still hold the frame (a lost ack), and a frame must
// keep its posted bytes for as long as it can be re-sent.
func (rs *reliableState) post(src, dst int, m message) {
	m.data = append([]float64(nil), m.data...)
	m.crc = durable.CRCWords(m.data)
	st := rs.send[src]
	st.mu.Lock()
	st.nextSeq[dst]++
	m.seq = st.nextSeq[dst]
	st.out[dst] = append(st.out[dst], pendingFrame{
		m:   m,
		due: time.Now().Add(rs.w.tc.RTO),
	})
	st.mu.Unlock()
	c := rs.w.net
	c.Sent.Add(1)
	c.SentBytes.Add(int64(8 * len(m.data)))
	rs.w.deliverFrame(src, dst, 0, m)
}

// hasPending reports whether src still has unacknowledged frames bound
// for dst (the retransmitter will keep delivering them even after src's
// rank goroutine has exited).
func (rs *reliableState) hasPending(src, dst int) bool {
	st := rs.send[src]
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.out[dst]) > 0
}

// run is rank r's retransmitter: it consumes cumulative acks and
// re-sends overdue frames with exponential backoff. It belongs to the
// fabric, not the rank, so it outlives a rank failure (in-flight frames
// a victim posted before dying are still repaired) and stops only at
// World.Close.
func (rs *reliableState) run(r int) {
	defer rs.wg.Done()
	tick := rs.w.tc.RTO / 2
	if tick <= 0 {
		tick = 500 * time.Microsecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-rs.stop:
			return
		case a := <-rs.acks[r]:
			rs.ack(r, a)
		case <-ticker.C:
			rs.scan(r)
		}
	}
}

// ack drops every pending frame to a.from with seq <= a.cum.
func (rs *reliableState) ack(r int, a ackMsg) {
	st := rs.send[r]
	st.mu.Lock()
	q := st.out[a.from]
	i := 0
	for i < len(q) && q[i].m.seq <= a.cum {
		i++
	}
	if i > 0 {
		st.out[a.from] = append(q[:0], q[i:]...)
	}
	st.mu.Unlock()
}

// scan retransmits every overdue frame of rank r, doubling its backoff
// (capped at 64x RTO), and abandons frames past maxAttempts.
func (rs *reliableState) scan(r int) {
	now := time.Now()
	rto := rs.w.tc.RTO
	counters := rs.w.net

	type resend struct {
		dst     int
		attempt int
		m       message
	}
	var due []resend
	st := rs.send[r]
	st.mu.Lock()
	for dst := range st.out {
		q := st.out[dst]
		kept := q[:0]
		for _, p := range q {
			if now.Before(p.due) {
				kept = append(kept, p)
				continue
			}
			p.attempts++
			if p.attempts >= maxAttempts {
				counters.Abandoned.Add(1)
				continue // dropped: the peer is presumed dead
			}
			shift := p.attempts
			if shift > 6 {
				shift = 6
			}
			p.due = now.Add(rto << uint(shift))
			due = append(due, resend{dst: dst, attempt: p.attempts, m: p.m})
			kept = append(kept, p)
		}
		st.out[dst] = kept
	}
	st.mu.Unlock()

	for _, d := range due {
		counters.Retransmits.Add(1)
		rs.w.deliverFrame(r, d.dst, d.attempt, d.m)
	}
}

// deliverFrame pushes one delivery attempt of a frame through the
// (optional) chaos injector into the destination mailbox. Reliable
// deliveries never block: a full mailbox drops the frame (counted) and
// retransmission repairs it.
func (w *World) deliverFrame(src, dst, attempt int, m message) {
	push := func(f message) bool {
		select {
		case w.boxes[src][dst] <- f:
			return true
		default:
			w.net.MailboxOverflow.Add(1)
			return false
		}
	}
	if w.chaos != nil {
		w.chaos.deliver(src, dst, attempt, m, push)
		return
	}
	push(m)
}

// postAck sends a cumulative acknowledgement for everything received
// in order from src. Acks cross the chaos fabric too; they are
// cumulative and re-posted on every accepted frame, so losing some is
// always masked.
func (c *Comm) postAck(src int) {
	cum := c.expect[src] - 1
	w := c.w
	if w.chaos != nil && !w.chaos.ackPass(c.rank, src, cum) {
		return
	}
	select {
	case w.rel.acks[src] <- ackMsg{from: c.rank, cum: cum}:
		w.net.Acks.Add(1)
	default:
	}
}
