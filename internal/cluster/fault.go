package cluster

// Deterministic injectable rank faults. A rank "fails" by calling Kill on
// itself and returning from its driver loop; it never closes its
// mailboxes (closing would panic later senders) and never sends again.
// Survivors observe the failure either by reading Failed, or — the only
// race-free way during a protocol — through a receive (Recv, FTRecv),
// whose wake-up on the victim's down channel happens-after Kill.
//
// Failure model (matches the damr recovery protocol): fail-stop, one
// failure per detection window, failures only between protocol phases
// (the injection harness fires at the top of the step loop). The
// fault-tolerant collectives below additionally survive the root dying
// mid-collective, because a victim that fails at a loop top may be the
// root of the very next collective.

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// ErrRankFailed reports that a peer rank failed; use errors.Is to match.
var ErrRankFailed = errors.New("cluster: peer rank failed")

// Kill marks rank r failed. Safe to call multiple times and from any
// goroutine; the flag is published before the down channel closes, so
// every observer woken by the close sees Failed(r) == true.
func (w *World) Kill(r int) {
	w.failed[r].Store(true)
	w.killed[r].Do(func() { close(w.down[r]) })
}

// Failed reports whether rank r has been killed.
func (w *World) Failed(r int) bool { return w.failed[r].Load() }

// Kill marks this communicator's own rank failed (the injection entry
// point: a rank kills itself and stops participating).
func (c *Comm) Kill() { c.w.Kill(c.rank) }

// Failed reports whether rank r has been killed.
func (c *Comm) Failed(r int) bool { return c.w.Failed(r) }

// AckAlarm reads the world's alarm generation and records it as processed
// by this rank — the snapshot a rank takes at its recovery point. It
// returns the generation and whether it had moved since the previous
// acknowledgement. FTRecv — and with it the FT collectives — wakes with
// ErrInterrupted as soon as the world alarm moves past the acknowledged
// generation.
func (c *Comm) AckAlarm() (gen uint64, moved bool) {
	_, gen = c.w.alarms.state()
	moved = gen != c.alarmSeen
	c.alarmSeen = gen
	return gen, moved
}

// suspect converts a timed-out receive from p into the revocation
// protocol: if this rank has itself been excluded meanwhile (a
// partitioned rank usually discovers its own exclusion this way, because
// its point-to-point deadlines are longer than its peers'), it must bow
// out; if another detector already raised the alarm, join that recovery
// round; otherwise declare p dead and raise the alarm so every rank
// unwinds to recovery. Kill happens strictly before Alarm, so every rank
// woken by the alarm computes the same survivor set.
func (c *Comm) suspect(p int) error {
	if c.w.Failed(c.rank) {
		return fmt.Errorf("%w: rank %d", ErrSelfExcluded, c.rank)
	}
	if _, gen := c.w.alarms.state(); gen != c.alarmSeen {
		return fmt.Errorf("%w: while suspecting rank %d", ErrInterrupted, p)
	}
	c.w.Kill(p)
	c.w.Alarm()
	return fmt.Errorf("%w: rank %d unresponsive, alarm raised", ErrInterrupted, p)
}

// FTRecv is the receive of every protocol that survives a peer failure:
// the FT collectives below and the point-to-point phases of the damr
// driver. On a default world it blocks and is death-aware (ErrRankFailed
// once src is dead and everything it sent before dying has been drained).
// On a transport world it additionally waits at most mult × the base
// RecvDeadline, wakes with ErrInterrupted when the recovery alarm moves
// past the generation this rank acknowledged (AckAlarm), and hands a
// timeout to the revocation protocol (suspect) — so the caller only ever
// sees ErrRankFailed, ErrInterrupted or ErrSelfExcluded, never a bare
// ErrTimeout. Callers pick mult so that a partitioned rank's own waits
// outlast its peers': it must discover its own exclusion before it can
// falsely suspect a live peer.
func (c *Comm) FTRecv(src, tag, mult int) ([]float64, float64, error) {
	if c.w.tc == nil {
		return c.recvTagged(src, tag, 0, false)
	}
	d := c.w.tc.RecvDeadline
	if d > 0 {
		d *= time.Duration(mult)
	}
	data, stamp, err := c.recvTagged(src, tag, d, true)
	if errors.Is(err, ErrTimeout) {
		err = c.suspect(src)
	}
	return data, stamp, err
}

// Fault-tolerant collective tags (clear of halo, reduce and damr tags).
const (
	tagFTReduce = 1 << 22
	tagFTBcast  = 1 << 23
)

// FTAllReduceMin is AllReduceMin over a participant list that survives
// rank failures: the in-order fold of FTAllGather, with the same
// participant contract and failure semantics. Every survivor folds the
// same contributions in ascending rank order, so all of them return the
// same (value, survivors) pair to the last bit.
func (c *Comm) FTAllReduceMin(x float64, participants []int) (float64, []int, error) {
	parts, alive, err := c.FTAllGather([]float64{x}, participants)
	if err != nil {
		return 0, nil, err
	}
	val := parts[alive[0]][0]
	for _, p := range alive[1:] {
		if v := parts[p][0]; v < val {
			val = v
		}
	}
	return val, alive, nil
}

// FTAllGather is AllGather over a participant list that survives rank
// failures. participants must be ascending, identical on every calling
// rank, and contain the caller; every participant that is alive must call
// it. The root (lowest participant) gathers with FTRecv, so a participant
// that died before contributing is simply excluded; the root then
// broadcasts the contributions together with the survivor list, and every
// survivor returns the same pair. The returned slice is indexed by world
// rank (nil for ranks that did not participate or died before
// contributing) and aliases transported buffers; callers must not mutate
// it. If the root itself died, the remaining participants retry with the
// next rank as root (first-round contributions sent to the dead root rot
// unread in its mailboxes, so retries cannot observe stale data). An
// error means this rank must unwind: it was interrupted by the recovery
// alarm, excluded, or ran out of participants.
func (c *Comm) FTAllGather(data []float64, participants []int) ([][]float64, []int, error) {
	parts := append([]int(nil), participants...)
	for {
		if len(parts) == 0 {
			return nil, nil, fmt.Errorf("%w: no participants left", ErrRankFailed)
		}
		if len(parts) == 1 {
			out := make([][]float64, c.w.size)
			out[c.rank] = data
			return out, parts, nil
		}
		root := parts[0]
		if c.rank == root {
			out := make([][]float64, c.w.size)
			out[root] = data
			alive := []int{root}
			for _, p := range parts[1:] {
				v, _, err := c.FTRecv(p, tagFTReduce, 1)
				if errors.Is(err, ErrRankFailed) {
					continue // p died before contributing
				}
				if err != nil {
					return nil, nil, err // interrupted or self-excluded
				}
				out[p] = v
				alive = append(alive, p)
			}
			sort.Ints(alive)
			// Flat rebroadcast: [nAlive, ranks…, lens…, payload…].
			flat := make([]float64, 0, 1+2*len(alive))
			flat = append(flat, float64(len(alive)))
			for _, p := range alive {
				flat = append(flat, float64(p))
			}
			for _, p := range alive {
				flat = append(flat, float64(len(out[p])))
			}
			for _, p := range alive {
				flat = append(flat, out[p]...)
			}
			for _, p := range alive {
				if p != root {
					c.Send(p, tagFTBcast, flat, 0)
				}
			}
			return out, alive, nil
		}
		c.Send(root, tagFTReduce, data, 0)
		// The non-root deadline is scaled well past the root's per-peer
		// deadline: the root may legitimately wait ~len(parts) deadlines
		// before broadcasting, and a partitioned rank must discover its
		// own exclusion before it can falsely suspect a live root.
		flat, _, err := c.FTRecv(root, tagFTBcast, len(parts)+2)
		if errors.Is(err, ErrRankFailed) {
			// Root died: drop it and retry with the next participant as
			// root. (Our contribution above is lost in its mailbox.)
			parts = parts[1:]
			continue
		}
		if err != nil {
			return nil, nil, err // interrupted or self-excluded
		}
		n := int(flat[0])
		alive := make([]int, n)
		for i := 0; i < n; i++ {
			alive[i] = int(flat[1+i])
		}
		out := make([][]float64, c.w.size)
		off := 1 + 2*n
		for i, p := range alive {
			l := int(flat[1+n+i])
			out[p] = flat[off : off+l]
			off += l
		}
		return out, alive, nil
	}
}
