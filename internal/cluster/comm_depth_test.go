package cluster

import (
	"sync"
	"testing"
	"time"
)

// TestDeepTagExchange pins the claim documented on mailboxDepth: a burst
// of many more outstanding messages than the mailbox depth cannot wedge
// a pair, because a receiver blocked on one tag drains and stashes the
// others. Rank 0 posts 32 distinctly tagged messages; rank 1 asks for
// them in reverse order, so the very first Recv must swallow 31
// mismatches through an 8-deep channel.
func TestDeepTagExchange(t *testing.T) {
	const tags = 32
	w := NewWorld(2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := w.Comm(0)
		for tag := 0; tag < tags; tag++ {
			c.Send(1, tag, []float64{float64(tag)}, 0)
		}
	}()
	go func() {
		defer wg.Done()
		c := w.Comm(1)
		for tag := tags - 1; tag >= 0; tag-- {
			data, _, _ := c.Recv(0, tag)
			if len(data) != 1 || data[0] != float64(tag) {
				t.Errorf("tag %d: got %v", tag, data)
				return
			}
		}
	}()
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deep tag exchange deadlocked")
	}
}

// TestPerTagOrder checks that stashing preserves per-tag FIFO order when
// two tags interleave.
func TestPerTagOrder(t *testing.T) {
	w := NewWorld(2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := w.Comm(0)
		for i := 0; i < 4; i++ {
			c.Send(1, i%2, []float64{float64(i)}, 0)
		}
	}()
	go func() {
		defer wg.Done()
		c := w.Comm(1)
		// Tag 1 first: forces tag-0 messages through the stash.
		a, _, _ := c.Recv(0, 1)
		b, _, _ := c.Recv(0, 1)
		x, _, _ := c.Recv(0, 0)
		y, _, _ := c.Recv(0, 0)
		if a[0] != 1 || b[0] != 3 || x[0] != 0 || y[0] != 2 {
			t.Errorf("per-tag order broken: %v %v %v %v", a, b, x, y)
		}
	}()
	wg.Wait()
}
