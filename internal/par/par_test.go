package par

import (
	"sync/atomic"
	"testing"
	"time"
)

// At most Size chunks run on pool goroutines at once; the caller runs
// the chunks that find every slot taken, so a loop never has more than
// Size+1 bodies in flight.
func TestPoolConcurrencyBound(t *testing.T) {
	p := NewPool(3)
	var cur, peak atomic.Int64
	p.ParallelFor(0, 50, 1, func(lo, hi int) {
		n := cur.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	})
	if peak.Load() > int64(p.Size()+1) {
		t.Errorf("peak concurrency %d exceeds bound %d + the caller", peak.Load(), p.Size())
	}
}

func TestParallelForCoversRange(t *testing.T) {
	p := NewPool(8)
	n := 10000
	hits := make([]int32, n)
	p.ParallelFor(0, n, 37, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestParallelForOffsetRange(t *testing.T) {
	p := NewPool(4)
	var sum atomic.Int64
	p.ParallelFor(100, 200, 7, func(lo, hi int) {
		local := int64(0)
		for i := lo; i < hi; i++ {
			local += int64(i)
		}
		sum.Add(local)
	})
	want := int64(100+199) * 100 / 2
	if sum.Load() != want {
		t.Errorf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestParallelForEmptyAndTiny(t *testing.T) {
	p := NewPool(4)
	called := false
	p.ParallelFor(5, 5, 1, func(lo, hi int) { called = true })
	if called {
		t.Error("empty range invoked the body")
	}
	count := 0
	p.ParallelFor(0, 1, 0, func(lo, hi int) { count += hi - lo })
	if count != 1 {
		t.Errorf("tiny range covered %d", count)
	}
}

func TestParallelForAutoGrain(t *testing.T) {
	p := NewPool(4)
	var visits atomic.Int64
	p.ParallelFor(0, 1000, 0, func(lo, hi int) {
		visits.Add(int64(hi - lo))
	})
	if visits.Load() != 1000 {
		t.Errorf("auto-grain covered %d/1000", visits.Load())
	}
}

// Nested parallelism must not deadlock: a chunk launching its own
// ParallelFor on the same pool.
func TestNestedParallelForNoDeadlock(t *testing.T) {
	p := NewPool(2)
	doneCh := make(chan struct{})
	go func() {
		p.ParallelFor(0, 4, 1, func(lo, hi int) {
			var sum atomic.Int64
			p.ParallelFor(0, 100, 10, func(lo, hi int) {
				sum.Add(int64(hi - lo))
			})
			if sum.Load() != 100 {
				t.Errorf("inner loop covered %d", sum.Load())
			}
		})
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("nested ParallelFor deadlocked")
	}
}

func TestNewPoolDefaults(t *testing.T) {
	if NewPool(0).Size() < 1 {
		t.Error("default pool empty")
	}
	if NewPool(7).Size() != 7 {
		t.Error("explicit size ignored")
	}
}

func TestPoolString(t *testing.T) {
	if NewPool(2).String() == "" {
		t.Error("empty String()")
	}
}
