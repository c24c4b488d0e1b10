package cluster

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// The two TestFaultRecv* tests pin FTRecv on a default world: blocking,
// tag-stashing, and death-aware only after the victim's backlog drained.
func TestFaultRecvDrainsBeforeFailing(t *testing.T) {
	w := NewWorld(2)
	a, b := w.Comm(0), w.Comm(1)
	// Rank 0 posts two messages (one on a mismatched tag) and dies.
	a.Send(1, 7, []float64{1}, 0)
	a.Send(1, 9, []float64{2}, 0)
	a.Kill()

	// The mismatched tag is stashed, the matching one delivered.
	v, _, err := b.FTRecv(0, 9, 1)
	if err != nil || v[0] != 2 {
		t.Fatalf("FTRecv(9) = %v, %v", v, err)
	}
	v, _, err = b.FTRecv(0, 7, 1)
	if err != nil || v[0] != 1 {
		t.Fatalf("FTRecv(7) = %v, %v", v, err)
	}
	// Mailbox empty, sender dead: typed failure.
	if _, _, err = b.FTRecv(0, 7, 1); !errors.Is(err, ErrRankFailed) {
		t.Fatalf("expected ErrRankFailed, got %v", err)
	}
}

func TestFaultRecvWakesBlockedReceiver(t *testing.T) {
	w := NewWorld(2)
	b := w.Comm(1)
	done := make(chan error, 1)
	go func() {
		_, _, err := b.FTRecv(0, 7, 1) // blocks: nothing sent
		done <- err
	}()
	w.Kill(0)
	if err := <-done; !errors.Is(err, ErrRankFailed) {
		t.Fatalf("expected ErrRankFailed, got %v", err)
	}
}

// runFT spawns one goroutine per alive rank, runs fn, and collects each
// rank's (value, survivors). The victim (if any) is killed first and
// never calls the collective, like a rank dying at the top of its loop.
func runFT(t *testing.T, n, victim int, fn func(c *Comm) (float64, []int, error)) (map[int]float64, map[int][]int) {
	t.Helper()
	w := NewWorld(n)
	if victim >= 0 {
		w.Kill(victim)
	}
	vals := make(map[int]float64)
	lists := make(map[int][]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			v, alive, err := fn(w.Comm(r))
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			mu.Lock()
			vals[r] = v
			lists[r] = alive
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	return vals, lists
}

func TestFaultFTAllReduceMinNoFailure(t *testing.T) {
	parts := []int{0, 1, 2, 3}
	vals, lists := runFT(t, 4, -1, func(c *Comm) (float64, []int, error) {
		return c.FTAllReduceMin(float64(10-c.Rank()), parts)
	})
	for r, v := range vals {
		if v != 7 {
			t.Fatalf("rank %d: min = %v, want 7", r, v)
		}
		if !reflect.DeepEqual(lists[r], parts) {
			t.Fatalf("rank %d: survivors = %v", r, lists[r])
		}
	}
}

func TestFaultFTAllReduceMinExcludesDead(t *testing.T) {
	parts := []int{0, 1, 2, 3}
	// Victim 2 carried the smallest value; it must be excluded.
	vals, lists := runFT(t, 4, 2, func(c *Comm) (float64, []int, error) {
		return c.FTAllReduceMin(float64(10-c.Rank()), parts)
	})
	want := []int{0, 1, 3}
	for r, v := range vals {
		if v != 7 {
			t.Fatalf("rank %d: min = %v, want 7", r, v)
		}
		if !reflect.DeepEqual(lists[r], want) {
			t.Fatalf("rank %d: survivors = %v, want %v", r, lists[r], want)
		}
	}
	if len(vals) != 3 {
		t.Fatalf("%d survivors returned", len(vals))
	}
}

func TestFaultFTAllReduceMinRootDeath(t *testing.T) {
	parts := []int{0, 1, 2, 3}
	vals, lists := runFT(t, 4, 0, func(c *Comm) (float64, []int, error) {
		return c.FTAllReduceMin(float64(10-c.Rank()), parts)
	})
	want := []int{1, 2, 3}
	for r, v := range vals {
		if v != 7 {
			t.Fatalf("rank %d: min = %v, want 7", r, v)
		}
		if !reflect.DeepEqual(lists[r], want) {
			t.Fatalf("rank %d: survivors = %v, want %v", r, lists[r], want)
		}
	}
}

// TestFaultFTAllReduceMinIsGatherFold: for random values (signed zeros
// and NaNs included) and random dead subsets, every survivor's
// FTAllReduceMin is bit for bit the strict-less fold, in ascending rank
// order, of what FTAllGather delivers — and both agree on the survivors.
func TestFaultFTAllReduceMinIsGatherFold(t *testing.T) {
	const n = 5
	special := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1)}
	check := func(vals [n]float64, pick [n]uint8, deadMask uint8) bool {
		for i, k := range pick {
			if k%4 == 0 { // a quarter of the slots draw from the awkward values
				vals[i] = special[int(k/4)%len(special)]
			}
		}
		if deadMask&(1<<n-1) == 1<<n-1 {
			deadMask &^= 1 // keep at least one rank alive
		}
		w := NewWorld(n)
		parts := make([]int, n)
		var want []int
		for r := range parts {
			parts[r] = r
			if deadMask&(1<<r) != 0 {
				w.Kill(r)
			} else {
				want = append(want, r)
			}
		}
		fold := vals[want[0]]
		for _, r := range want[1:] {
			if vals[r] < fold {
				fold = vals[r]
			}
		}
		ok := make([]bool, n)
		var wg sync.WaitGroup
		for _, r := range want {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c := w.Comm(r)
				min, alive, err := c.FTAllReduceMin(vals[r], parts)
				if err != nil {
					return
				}
				got, galive, err := c.FTAllGather([]float64{vals[r]}, parts)
				if err != nil {
					return
				}
				gfold := got[galive[0]][0]
				for _, p := range galive[1:] {
					if got[p][0] < gfold {
						gfold = got[p][0]
					}
				}
				ok[r] = reflect.DeepEqual(alive, want) && reflect.DeepEqual(galive, want) &&
					math.Float64bits(min) == math.Float64bits(gfold) &&
					math.Float64bits(min) == math.Float64bits(fold)
			}(r)
		}
		wg.Wait()
		for _, r := range want {
			if !ok[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultFTAllGather(t *testing.T) {
	parts := []int{0, 1, 2, 3}
	w := NewWorld(4)
	w.Kill(1)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		if r == 1 {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			out, alive, err := c.FTAllGather([]float64{float64(r), float64(r * r)}, parts)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			if !reflect.DeepEqual(alive, []int{0, 2, 3}) {
				t.Errorf("rank %d: survivors = %v", r, alive)
				return
			}
			if out[1] != nil {
				t.Errorf("rank %d: dead rank has data %v", r, out[1])
			}
			for _, p := range alive {
				want := []float64{float64(p), float64(p * p)}
				if !reflect.DeepEqual(out[p], want) {
					t.Errorf("rank %d: out[%d] = %v, want %v", r, p, out[p], want)
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestFaultAliveRanks(t *testing.T) {
	w := NewWorld(4)
	w.Kill(2)
	w.Kill(2) // idempotent
	for r := 0; r < 4; r++ {
		if w.Failed(r) != (r == 2) {
			t.Fatalf("Failed(%d) = %v after killing rank 2", r, w.Failed(r))
		}
	}
}
