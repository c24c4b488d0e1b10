package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded from bench's own code around a call
// into a layer's public function. IDs are 1-based; Parent 0 is a root.
// Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until flush. A nil *tracer is the
// tracing-off state: begin returns 0 and end ignores it, so the timed
// paths carry no branches of their own.
type tracer struct {
	mu       sync.Mutex
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// onTurn alternates plain and traced rounds: it returns the tracer for
// every other round, the seed deciding which kind goes first, and nil —
// tracing off — for the rest and whenever t is nil.
func (t *tracer) onTurn(round int, seed int64) *tracer {
	if (int64(round)+seed)%2 != 0 {
		return nil
	}
	return t
}

func (t *tracer) begin(parent int, name string, round int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload, Round: round, Start: now, End: -1,
	})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the finished spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// covered returns how much of [lo, hi) the given intervals cover, counting
// overlapping intervals once: concurrent children (jobs of one burst) must
// not be subtracted twice from their parent.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// childCover maps each span ID to the part of its interval its direct
// children cover.
func childCover(spans []span) map[int]int64 {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(kids))
	for id, ivs := range kids {
		p, ok := byID[id]
		if !ok {
			continue
		}
		out[id] = covered(p.Start, p.End, ivs)
	}
	return out
}

// selfTimes sums, per span name, duration minus the part covered by
// children: the time the layer spent in its own code.
func selfTimes(spans []span) map[string]int64 {
	cov := childCover(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.dur() - cov[s.ID]
	}
	return out
}

// totalTimes sums span durations per name.
func totalTimes(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}

// spanCover is the share of the named top-level spans' wall time that
// their children account for: the trace explains that much of a round.
func spanCover(spans []span, top string) float64 {
	cov := childCover(spans)
	var wall, in int64
	for _, s := range spans {
		if s.Name == top {
			wall += s.dur()
			in += cov[s.ID]
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(in) / float64(wall)
}

// flush writes the spans as one JSON array to dir/trace-<workload>.json.
func (t *tracer) flush(dir string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), append(blob, '\n'), 0o644)
}
