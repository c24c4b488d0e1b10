package cluster

// Deterministic network fault injection. Every delivery attempt of a
// frame is perturbed (or not) by a pure function of
// (seed, src, dst, tag, seq, attempt), so a chaos schedule is exactly
// reproducible from its seed alone — no wall-clock state, no RNG
// stream shared across pairs. Faults per frame are bounded: once
// maxFaultsPerMessage attempts of one frame have been perturbed, every
// further attempt passes clean, so retransmission always terminates
// and any seeded schedule without a Silence fault is maskable.

import (
	"math"
	"sync"

	"rhsc/internal/metrics"
)

// ChaosSpec configures the deterministic fault injector. Probabilities
// are per delivery attempt and mutually exclusive (a single uniform
// draw selects at most one fault per attempt); their sum must be < 1.
type ChaosSpec struct {
	Seed uint64
	// Drop vanishes the frame.
	Drop float64
	// Duplicate delivers the frame twice back to back.
	Duplicate float64
	// Delay holds the frame in limbo until delaySlots further frames
	// have crossed the same (src, dst) pair, then delivers it — a
	// bounded reordering.
	Delay float64
	// Corrupt flips one payload bit in a copy of the frame (the
	// sender's buffer is never touched); the receiver's CRC32C check
	// rejects it and retransmission repairs it.
	Corrupt float64
	// Silence, when non-nil, permanently vanishes every frame (and
	// acknowledgement) rank Silence.Rank sends once it has posted
	// Silence.AfterSends frames — an unmaskable partition: the rank is
	// alive but mute, and the deadline layer must convert it into a
	// rank-failure recovery.
	Silence *SilenceFault
}

// SilenceFault mutes one rank's outbound traffic permanently after its
// AfterSends-th posted frame.
type SilenceFault struct {
	Rank       int
	AfterSends int
}

const (
	// delaySlots is how many further frames on the same pair a delayed
	// frame waits out in limbo.
	delaySlots = 3
	// maxFaultsPerMessage bounds perturbed attempts per frame; further
	// attempts pass clean.
	maxFaultsPerMessage = 4
)

// limboFrame is a delayed frame waiting out its slot count.
type limboFrame struct {
	m         message
	remaining int
}

// pairChaos is the per-(src,dst) injector state: how many attempts of
// each live sequence number were perturbed, and the delayed frames.
type pairChaos struct {
	faults map[uint64]int
	limbo  []limboFrame
}

type chaosNet struct {
	spec     ChaosSpec
	counters *metrics.TransportCounters

	mu    sync.Mutex
	pairs [][]*pairChaos // [src][dst]
	sends []int          // frames posted per src (for Silence)
}

func newChaosNet(n int, spec *ChaosSpec, counters *metrics.TransportCounters) *chaosNet {
	c := &chaosNet{spec: *spec, counters: counters, sends: make([]int, n)}
	c.pairs = make([][]*pairChaos, n)
	for i := range c.pairs {
		c.pairs[i] = make([]*pairChaos, n)
		for j := range c.pairs[i] {
			c.pairs[i][j] = &pairChaos{faults: map[uint64]int{}}
		}
	}
	return c
}

// mix64 is a splitmix64-style finalizer: a high-quality deterministic
// hash of the frame identity.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (c *chaosNet) draw(src, dst, tag int, seq uint64, attempt int, salt uint64) uint64 {
	h := c.spec.Seed
	h = mix64(h ^ uint64(src)<<40 ^ uint64(dst)<<20 ^ uint64(uint32(tag)))
	h = mix64(h ^ seq)
	h = mix64(h ^ uint64(attempt)<<8 ^ salt)
	return h
}

// uniform maps a hash to [0, 1).
func uniform(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// chaosAction is the injector's verdict for one delivery attempt.
type chaosAction int

const (
	actClean chaosAction = iota
	actDrop
	actDup
	actDelay
	actCorrupt
)

// deliver runs one delivery attempt of m from src to dst through the
// injector and pushes the surviving copies onto push (which must not
// block; reliable mode drops on a full mailbox).
func (c *chaosNet) deliver(src, dst, attempt int, m message, push func(message) bool) {
	c.mu.Lock()
	spec := &c.spec
	if s := spec.Silence; s != nil && src == s.Rank {
		c.sends[src]++
		if c.sends[src] > s.AfterSends {
			c.mu.Unlock()
			c.counters.ChaosDropped.Add(1)
			return
		}
	}
	pair := c.pairs[src][dst]
	act := actClean
	if pair.faults[m.seq] < maxFaultsPerMessage {
		u := uniform(c.draw(src, dst, m.tag, m.seq, attempt, 0x9e3779b97f4a7c15))
		switch {
		case u < spec.Drop:
			act = actDrop
		case u < spec.Drop+spec.Duplicate:
			act = actDup
		case u < spec.Drop+spec.Duplicate+spec.Delay:
			act = actDelay
		case u < spec.Drop+spec.Duplicate+spec.Delay+spec.Corrupt && len(m.data) > 0:
			act = actCorrupt
		}
		if act != actClean {
			pair.faults[m.seq]++
		}
	}

	// Collect the frames this attempt releases: the (possibly mutated)
	// frame itself plus any limbo frames whose slot count expires as
	// this attempt crosses the pair.
	var out []message
	switch act {
	case actDrop:
		c.counters.ChaosDropped.Add(1)
	case actDup:
		c.counters.ChaosDuplicated.Add(1)
		out = append(out, m, m)
	case actDelay:
		c.counters.ChaosDelayed.Add(1)
		pair.limbo = append(pair.limbo, limboFrame{m: m, remaining: delaySlots})
	case actCorrupt:
		c.counters.ChaosCorrupted.Add(1)
		corrupted := m
		corrupted.data = append([]float64(nil), m.data...)
		h := c.draw(src, dst, m.tag, m.seq, attempt, 0xd1b54a32d192ed03)
		word := int(h % uint64(len(corrupted.data)))
		bit := uint((h >> 32) % 64)
		corrupted.data[word] = math.Float64frombits(
			math.Float64bits(corrupted.data[word]) ^ (1 << bit))
		out = append(out, corrupted)
	default:
		out = append(out, m)
	}
	// Advance the pair's limbo clock by one slot and release expired
	// frames behind the current attempt.
	kept := pair.limbo[:0]
	for _, lf := range pair.limbo {
		lf.remaining--
		if lf.remaining <= 0 {
			out = append(out, lf.m)
		} else {
			kept = append(kept, lf)
		}
	}
	pair.limbo = kept
	// Prune fault bookkeeping for long-dead sequence numbers so the map
	// stays bounded on long runs.
	if len(pair.faults) > 4096 {
		for s := range pair.faults {
			if s+2048 < m.seq {
				delete(pair.faults, s)
			}
		}
	}
	c.mu.Unlock()

	for _, f := range out {
		push(f)
	}
}

// ackPass reports whether an acknowledgement (dst → src, cumulative
// cum) survives the fabric. Acks are cumulative and re-posted on every
// accepted frame, so dropping some is always masked; they share the
// Drop probability and the Silence fault.
func (c *chaosNet) ackPass(from, to int, cum uint64) bool {
	c.mu.Lock()
	spec := &c.spec
	if s := spec.Silence; s != nil && from == s.Rank {
		c.sends[from]++
		if c.sends[from] > s.AfterSends {
			c.mu.Unlock()
			return false
		}
	}
	c.mu.Unlock()
	if spec.Drop <= 0 {
		return true
	}
	h := c.draw(from, to, -1, cum, 0, 0xeb44accab455d165)
	return uniform(h) >= spec.Drop
}
