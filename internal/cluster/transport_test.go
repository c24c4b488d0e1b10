package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// withTimeout fails the test if fn does not return within d — the
// transport contract says no fault schedule may hang a receive.
func withTimeout(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("operation hung past the deadline")
	}
}

// TestRecvPeerDeathTyped pins the satellite-1 regression: a Recv on the
// default world whose peer dies must surface ErrRankFailed, not hang.
func TestRecvPeerDeathTyped(t *testing.T) {
	w := NewWorld(2)
	c1 := w.Comm(1)
	w.Kill(0)
	withTimeout(t, 5*time.Second, func() {
		if _, _, err := c1.Recv(0, 3); !errors.Is(err, ErrRankFailed) {
			t.Errorf("Recv from dead peer: err = %v, want ErrRankFailed", err)
		}
	})
}

// TestRecvDrainThenFail checks that messages a rank sent before dying
// are still delivered before its death surfaces.
func TestRecvDrainThenFail(t *testing.T) {
	w := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	c0.Send(1, 4, []float64{1}, 0)
	c0.Send(1, 4, []float64{2}, 0)
	w.Kill(0)
	withTimeout(t, 5*time.Second, func() {
		for want := 1.0; want <= 2; want++ {
			d, _, err := c1.Recv(0, 4)
			if err != nil || d[0] != want {
				t.Fatalf("drain: got %v, %v, want [%v]", d, err, want)
			}
		}
		if _, _, err := c1.Recv(0, 4); !errors.Is(err, ErrRankFailed) {
			t.Errorf("after drain: err = %v, want ErrRankFailed", err)
		}
	})
}

// TestRecvDeadlineTyped checks that a receive with no sender on a world
// with a RecvDeadline surfaces ErrTimeout (and is counted), never
// blocking past the bound.
func TestRecvDeadlineTyped(t *testing.T) {
	w := NewWorldTransport(2, TransportConfig{
		Reliable: true, RTO: time.Millisecond, RecvDeadline: 30 * time.Millisecond,
	})
	defer w.Close()
	c1 := w.Comm(1)
	withTimeout(t, 5*time.Second, func() {
		if _, _, err := c1.Recv(0, 1); !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
	})
	if got := w.NetCounters().Snapshot().Timeouts; got != 1 {
		t.Errorf("Timeouts = %d, want 1", got)
	}
}

// TestReliableCleanDelivery runs the reliable protocol with no chaos:
// everything arrives intact, in per-tag order, with no repairs needed.
func TestReliableCleanDelivery(t *testing.T) {
	const n = 100
	w := NewWorldTransport(2, TransportConfig{
		Reliable: true, RTO: 50 * time.Millisecond, RecvDeadline: 5 * time.Second,
	})
	defer w.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := w.Comm(0)
		for i := 0; i < n; i++ {
			c.Send(1, i%3, []float64{float64(i), float64(i) * 0.5}, float64(i))
		}
	}()
	go func() {
		defer wg.Done()
		c := w.Comm(1)
		for i := 0; i < n; i++ {
			d, s, err := c.Recv(0, i%3)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			if len(d) != 2 || d[0] != float64(i) || s != float64(i) {
				t.Errorf("recv %d: got %v, %v", i, d, s)
				return
			}
		}
	}()
	wg.Wait()
	snap := w.NetCounters().Snapshot()
	if snap.Sent != n {
		t.Errorf("Sent = %d, want %d", snap.Sent, n)
	}
	if snap.Delivered != n {
		t.Errorf("Delivered = %d, want %d", snap.Delivered, n)
	}
	if snap.CrcRejected != 0 || snap.Abandoned != 0 {
		t.Errorf("clean run repaired: %+v", snap)
	}
}

// chaosPattern runs a fixed all-pairs exchange over the given transport
// (every receive bounded by a generous world deadline) and returns every
// received payload in a deterministic order.
func chaosPattern(t *testing.T, tc TransportConfig) [][]float64 {
	t.Helper()
	const ranks, msgs = 3, 40
	tc.RecvDeadline = 10 * time.Second
	w := NewWorldTransport(ranks, tc)
	defer w.Close()
	out := make([][][]float64, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			for i := 0; i < msgs; i++ {
				for dst := 0; dst < ranks; dst++ {
					if dst != r {
						c.Send(dst, i%4, []float64{float64(r*1000 + i), float64(i) * 1.5}, float64(i))
					}
				}
			}
			for src := 0; src < ranks; src++ {
				if src == r {
					continue
				}
				for i := 0; i < msgs; i++ {
					d, s, err := c.Recv(src, i%4)
					if err != nil {
						t.Errorf("rank %d recv %d from %d: %v", r, i, src, err)
						return
					}
					out[r] = append(out[r], append([]float64{float64(src), s}, d...))
				}
			}
		}(r)
	}
	wg.Wait()
	var flat [][]float64
	for _, per := range out {
		flat = append(flat, per...)
	}
	return flat
}

// TestChaosMaskedBitwise is the core masking contract: under a seeded
// chaos schedule of drops, duplicates, delays, and corruptions, every
// payload and stamp the application sees is bitwise identical to the
// clean fabric — and the schedule itself is reproducible.
func TestChaosMaskedBitwise(t *testing.T) {
	clean := chaosPattern(t, TransportConfig{Reliable: true, RTO: time.Millisecond})
	chaos := TransportConfig{
		Chaos: &ChaosSpec{Seed: 42, Drop: 0.25, Duplicate: 0.15, Delay: 0.15, Corrupt: 0.1},
		RTO:   time.Millisecond,
	}
	withTimeout(t, 60*time.Second, func() {
		first := chaosPattern(t, chaos)
		if fmt.Sprint(first) != fmt.Sprint(clean) {
			t.Fatal("chaos run diverged from clean run")
		}
		second := chaosPattern(t, chaos)
		if fmt.Sprint(second) != fmt.Sprint(first) {
			t.Fatal("same seed produced different results")
		}
	})

	// The schedule must actually have injected faults and repaired them.
	chaos.RecvDeadline = 10 * time.Second
	w := NewWorldTransport(2, chaos)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := w.Comm(0)
		for i := 0; i < 200; i++ {
			c.Send(1, 0, []float64{float64(i)}, 0)
		}
	}()
	go func() {
		defer wg.Done()
		c := w.Comm(1)
		for i := 0; i < 200; i++ {
			d, _, err := c.Recv(0, 0)
			if err != nil || d[0] != float64(i) {
				t.Errorf("recv %d: %v, %v", i, d, err)
				return
			}
		}
	}()
	wg.Wait()
	snap := w.NetCounters().Snapshot()
	w.Close()
	if snap.ChaosDropped == 0 || snap.ChaosDuplicated == 0 || snap.ChaosCorrupted == 0 {
		t.Errorf("chaos injected nothing: %+v", snap)
	}
	if snap.Retransmits == 0 || snap.CrcRejected == 0 || snap.DupDiscarded == 0 {
		t.Errorf("no repairs observed: %+v", snap)
	}
}

// TestChaosSilenceSuspect checks the unmaskable fault path: a silenced
// rank times out, and FTRecv converts the timeout into exclusion plus a
// raised alarm rather than a hang or a silent wrong answer.
func TestChaosSilenceSuspect(t *testing.T) {
	w := NewWorldTransport(2, TransportConfig{
		Chaos:        &ChaosSpec{Seed: 7, Silence: &SilenceFault{Rank: 0, AfterSends: 0}},
		RTO:          time.Millisecond,
		RecvDeadline: 50 * time.Millisecond,
	})
	defer w.Close()
	c1 := w.Comm(1)
	w.Comm(0).Send(1, 1, []float64{1}, 0) // muted by the silence fault
	withTimeout(t, 5*time.Second, func() {
		if _, _, err := c1.Recv(0, 1); !errors.Is(err, ErrTimeout) {
			t.Fatalf("recv from silenced rank: err = %v, want ErrTimeout", err)
		}
		if _, _, err := c1.FTRecv(0, 1, 1); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("FTRecv from silenced rank: err = %v, want ErrInterrupted", err)
		}
	})
	if !w.Failed(0) {
		t.Error("suspected rank not excluded")
	}
	if _, gen := w.alarms.state(); gen != 1 {
		t.Errorf("alarm generation = %d, want 1", gen)
	}
}

// TestAlarmInterruptsRecv checks that a raised alarm unblocks a
// fault-tolerant receive immediately with ErrInterrupted.
func TestAlarmInterruptsRecv(t *testing.T) {
	w := NewWorldTransport(2, TransportConfig{
		Reliable: true, RTO: time.Millisecond, RecvDeadline: 10 * time.Second,
	})
	defer w.Close()
	c1 := w.Comm(1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		w.Alarm()
	}()
	withTimeout(t, 5*time.Second, func() {
		start := time.Now()
		_, _, err := c1.FTRecv(0, 1, 1)
		if !errors.Is(err, ErrInterrupted) {
			t.Errorf("err = %v, want ErrInterrupted", err)
		}
		if time.Since(start) > 5*time.Second {
			t.Error("interrupt did not unblock promptly")
		}
	})
}

// TestEraDiscardsStaleFrames checks that after an era advance the
// receiver acknowledges-and-discards frames of the aborted era, and
// fresh-era traffic flows normally.
func TestEraDiscardsStaleFrames(t *testing.T) {
	w := NewWorldTransport(2, TransportConfig{
		Reliable: true, RTO: time.Millisecond, RecvDeadline: 200 * time.Millisecond,
	})
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)
	c0.Send(1, 1, []float64{1}, 0) // era 0 frame
	c1.SetEra(1)
	withTimeout(t, 5*time.Second, func() {
		if _, _, err := c1.Recv(0, 1); !errors.Is(err, ErrTimeout) {
			t.Fatalf("stale frame delivered: err = %v, want ErrTimeout", err)
		}
		c0.SetEra(1)
		c0.Send(1, 1, []float64{2}, 0)
		d, _, err := c1.Recv(0, 1)
		if err != nil || d[0] != 2 {
			t.Fatalf("fresh frame: got %v, %v", d, err)
		}
	})
	if got := w.NetCounters().Snapshot().StaleEraDropped; got != 1 {
		t.Errorf("StaleEraDropped = %d, want 1", got)
	}
}

// TestKillRaceFailedBeforeDown hammers the satellite-3 ordering under
// the race detector: however a concurrent Kill interleaves with an
// in-flight stream, the moment Recv surfaces ErrRankFailed the Failed
// flag must already be visible.
func TestKillRaceFailedBeforeDown(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		w := NewWorld(2)
		const n = 200
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			c := w.Comm(0)
			for i := 0; i < n; i++ {
				c.Send(1, 0, []float64{float64(i)}, 0)
			}
		}()
		killed := make(chan struct{})
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(trial%5) * 100 * time.Microsecond)
			w.Kill(0)
			close(killed)
		}()
		withTimeout(t, 10*time.Second, func() {
			c := w.Comm(1)
			got := 0
			for got < n {
				_, _, err := c.Recv(0, 0)
				if err == nil {
					got++
					continue
				}
				if !errors.Is(err, ErrRankFailed) {
					t.Errorf("trial %d: err = %v, want ErrRankFailed", trial, err)
					break
				}
				if !w.Failed(0) {
					t.Errorf("trial %d: Recv failed before Failed flag was set", trial)
					break
				}
				// The producer may still be pushing pre-kill backlog; keep
				// draining so it never blocks on a full mailbox.
			}
			wg.Wait()
			<-killed
		})
	}
}

// TestFTCollectiveKillRace runs fault-tolerant collectives on the lossy
// transport while a rank is killed externally mid-protocol: survivors
// must converge on the shrunken set and the victim must exit via a
// typed error, all under -race with no hangs.
func TestFTCollectiveKillRace(t *testing.T) {
	const ranks, rounds = 3, 30
	w := NewWorldTransport(ranks, TransportConfig{
		Reliable:     true,
		RTO:          time.Millisecond,
		RecvDeadline: 250 * time.Millisecond,
	})
	defer w.Close()
	go func() {
		time.Sleep(5 * time.Millisecond)
		w.Kill(2)
		w.Alarm()
	}()
	survivors := make([][]int, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			active := []int{0, 1, 2}
			for round := 0; round < rounds; {
				if _, moved := c.AckAlarm(); moved {
					var alive []int
					for _, a := range active {
						if !c.Failed(a) {
							alive = append(alive, a)
						}
					}
					active = alive
				}
				if c.Failed(r) {
					return // the victim bows out like a killed rank
				}
				v, alive, err := c.FTAllReduceMin(float64(r), active)
				if err != nil {
					if errors.Is(err, ErrSelfExcluded) {
						return
					}
					if errors.Is(err, ErrInterrupted) || errors.Is(err, ErrRankFailed) {
						continue // re-derive the survivor set at the loop top
					}
					t.Errorf("rank %d round %d: %v", r, round, err)
					return
				}
				active = alive
				if want := float64(active[0]); v != want {
					t.Errorf("rank %d round %d: min = %v over %v", r, round, v, active)
					return
				}
				round++
			}
			survivors[r] = active
		}(r)
	}
	withTimeout(t, 30*time.Second, wg.Wait)
	for r := 0; r < 2; r++ {
		if len(survivors[r]) == 0 || len(survivors[r]) < ranks-1 {
			t.Errorf("rank %d finished with survivors %v, want at least %d ranks",
				r, survivors[r], ranks-1)
		}
	}
}

// TestMustRecvPanics pins the non-FT collective contract: using a plain
// collective across a rank failure is a loud panic, not a silent hang.
func TestMustRecvPanics(t *testing.T) {
	w := NewWorld(2)
	c1 := w.Comm(1)
	w.Kill(0)
	withTimeout(t, 5*time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("AllReduceMin over a dead rank did not panic")
			}
		}()
		c1.AllReduceMin(1)
	})
}
