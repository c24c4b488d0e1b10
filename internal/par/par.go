// Package par is the bounded worker pool beneath the solver: one
// strip-mined parallel loop, ParallelFor, whose grain is the scheduling
// unit. The solver's tile sweeps and recoveries and the kernels of a hetero
// device phase all run through it.
//
// The pool is a counting semaphore rather than a fixed worker set, so a
// parallel loop started from inside a chunk can never deadlock: a chunk
// that finds no free slot runs on its caller.
package par

import (
	"fmt"
	"runtime"
	"sync"
)

// Pool bounds the number of concurrently running chunks. It is a
// counting semaphore over fresh goroutines.
type Pool struct {
	slots chan struct{}
}

// NewPool returns a pool allowing n concurrent tasks. n <= 0 selects
// runtime.NumCPU().
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return &Pool{slots: make(chan struct{}, n)}
}

// Size returns the concurrency bound.
func (p *Pool) Size() int { return cap(p.slots) }

// ParallelFor executes fn over [lo, hi) split into chunks of at most grain
// iterations, running chunks concurrently on the pool and returning when
// all are done. grain <= 0 selects a grain that yields ~4 chunks per slot.
// The function must be safe to call concurrently on disjoint ranges.
func (p *Pool) ParallelFor(lo, hi, grain int, fn func(lo, hi int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = n / (4 * p.Size())
		if grain < 1 {
			grain = 1
		}
	}
	if n <= grain {
		fn(lo, hi)
		return
	}
	var wg sync.WaitGroup
	// One shared chunk body, spawned with per-chunk bounds as plain
	// arguments: the loop allocates a single closure per ParallelFor call
	// instead of one per spawned chunk.
	run := func(a, b int) {
		defer func() {
			<-p.slots
			wg.Done()
		}()
		fn(a, b)
	}
	for start := lo; start < hi; start += grain {
		end := start + grain
		if end > hi {
			end = hi
		}
		// Acquire a slot without blocking; when the pool is saturated the
		// caller runs the chunk itself. This keeps nested parallel loops
		// deadlock-free: a pooled task that launches an inner loop makes
		// progress on its own slot instead of waiting for others.
		select {
		case p.slots <- struct{}{}:
			wg.Add(1)
			go run(start, end)
		default:
			fn(start, end)
		}
	}
	wg.Wait()
}

// String implements fmt.Stringer for diagnostics.
func (p *Pool) String() string {
	return fmt.Sprintf("par.Pool(slots=%d, busy=%d)", cap(p.slots), len(p.slots))
}
