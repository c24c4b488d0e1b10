package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rhsc"
	"rhsc/internal/testprob"
)

// JobSpec describes one simulation job: the catalogued problem and
// numerical method (the same knobs as rhsc.Options), the run extent,
// and the serving metadata (tenant, priority). The zero value of every
// method field takes the library default.
type JobSpec struct {
	// Tenant names the quota bucket charged for this job; empty maps to
	// "default".
	Tenant string `json:"tenant,omitempty"`
	// Priority orders dispatch: higher runs first, and a saturated pool
	// preempts a strictly lower-priority running job to make room.
	Priority int `json:"priority,omitempty"`

	Problem    string  `json:"problem"`
	N          int     `json:"n,omitempty"`
	Recon      string  `json:"recon,omitempty"`
	Riemann    string  `json:"riemann,omitempty"`
	Integrator string  `json:"integrator,omitempty"`
	CFL        float64 `json:"cfl,omitempty"`
	Gamma      float64 `json:"gamma,omitempty"`

	// MaxSteps bounds the committed steps (0 = run to TEnd); TEnd
	// overrides the problem's canonical end time when > 0. The job
	// finishes at whichever limit it reaches first.
	MaxSteps int     `json:"max_steps,omitempty"`
	TEnd     float64 `json:"tend,omitempty"`

	// AMR selects an adaptively refined run with the policy below.
	AMR        bool `json:"amr,omitempty"`
	MaxLevel   int  `json:"max_level,omitempty"`
	RootBlocks int  `json:"root_blocks,omitempty"`
	BlockN     int  `json:"block_n,omitempty"`

	// ReportEvery is the progress-event cadence in steps (default 16).
	ReportEvery int `json:"report_every,omitempty"`

	// Inject schedules a deterministic fault for chaos testing (serial
	// jobs only): the guard absorbs it and the job still completes.
	Inject *InjectSpec `json:"inject,omitempty"`
	// PanicAtStep makes the worker panic after that committed step — a
	// chaos knob proving per-job panic absorption; the job fails, the
	// daemon survives.
	PanicAtStep int `json:"panic_at_step,omitempty"`
}

// InjectSpec mirrors rhsc.FaultInjection for the wire format.
type InjectSpec struct {
	AtStep     int  `json:"at_step"`
	Count      int  `json:"count,omitempty"`
	Cell       int  `json:"cell,omitempty"`
	Unphysical bool `json:"unphysical,omitempty"`
	InStage    bool `json:"in_stage,omitempty"`
}

// tenant returns the quota bucket name.
func (sp *JobSpec) tenant() string {
	if sp.Tenant == "" {
		return "default"
	}
	return sp.Tenant
}

// options maps the spec onto library options.
func (sp *JobSpec) options() rhsc.Options {
	return rhsc.Options{
		Problem: sp.Problem, N: sp.N, Recon: sp.Recon, Riemann: sp.Riemann,
		Integrator: sp.Integrator, CFL: sp.CFL, Gamma: sp.Gamma,
	}
}

// amrOptions maps the AMR policy knobs; nil for serial jobs.
func (sp *JobSpec) amrOptions() *rhsc.AMROptions {
	if !sp.AMR {
		return nil
	}
	return &rhsc.AMROptions{
		MaxLevel: sp.MaxLevel, RootBlocks: sp.RootBlocks, BlockN: sp.BlockN,
	}
}

// Validate resolves every name the way dispatch will and bounds the
// extents, so a queued job cannot fail on a typo hours later.
func (sp *JobSpec) Validate() error {
	if err := rhsc.CheckOptions(sp.options()); err != nil {
		return err
	}
	if sp.N < 0 || sp.N > 4096 {
		return fmt.Errorf("serve: n %d out of range [0, 4096]", sp.N)
	}
	if sp.MaxSteps < 0 {
		return fmt.Errorf("serve: negative max_steps %d", sp.MaxSteps)
	}
	if sp.TEnd < 0 || math.IsNaN(sp.TEnd) || math.IsInf(sp.TEnd, 0) {
		return fmt.Errorf("serve: unusable tend %v", sp.TEnd)
	}
	if sp.AMR {
		if sp.MaxLevel < 0 || sp.MaxLevel > 6 {
			return fmt.Errorf("serve: max_level %d out of range [0, 6]", sp.MaxLevel)
		}
		// The root grid is RootBlocks·BlockN cells a side, bounded as N is.
		if nb, bn := sp.rootBlocks(), sp.blockN(); nb < 1 || bn < 1 || nb > 4096 || bn > 4096 || nb*bn > 4096 {
			return fmt.Errorf("serve: root_blocks·block_n %d·%d out of range [1, 4096]", sp.RootBlocks, sp.BlockN)
		}
		if sp.Inject != nil {
			return fmt.Errorf("serve: fault injection requires a serial job")
		}
	}
	return nil
}

// Cost is the admission-control charge in zone-updates: zones × steps ×
// RK stages. It is a worst-case bound: steps are bounded by the CFL floor
// dt ≥ CFL/Σ_d(1/Δx_d) (relativistic signal speeds never exceed c = 1),
// so tEnd·Σ_d(1/Δx_d)/CFL over-counts, never under-counts. An AMR job is
// charged as its grid fully refined to MaxLevel — the root grid with
// 2^MaxLevel times the cells along each axis, on the root layout the tree
// builds — stepping on that finest spacing, which bounds every leaf set
// the run can reach. A charge too large for an int64 saturates at
// math.MaxInt64, which no budget admits.
func (sp *JobSpec) Cost() (int64, error) {
	p, err := testprob.ByName(problemOrDefault(sp.Problem))
	if err != nil {
		return 0, err
	}
	n := sp.N
	if n <= 0 {
		n = 256
	}
	zones := int64(n)
	aspect := 1.0
	if p.Dim >= 2 {
		aspect = (p.Y1 - p.Y0) / (p.X1 - p.X0)
		zones *= int64(math.Ceil(float64(n) * aspect))
	}
	var rate float64 // Σ_d 1/Δx_d of the finest AMR grid
	if sp.AMR {
		lvl := sp.MaxLevel
		if lvl <= 0 {
			lvl = 2
		}
		nx := int64(sp.rootBlocks()*sp.blockN()) << uint(lvl)
		zones = nx
		rate = float64(nx) / (p.X1 - p.X0)
		if p.Dim >= 2 {
			// amr.NewTree's root layout: round(root_blocks·aspect) blocks.
			nby := max(1, int64(math.Round(float64(sp.rootBlocks())*aspect)))
			ny := nby * int64(sp.blockN()) << uint(lvl)
			zones = satMul(zones, ny)
			rate += float64(ny) / (p.Y1 - p.Y0)
		}
	}
	tEnd := sp.TEnd
	if tEnd <= 0 {
		tEnd = p.TEnd
	}
	cfl := sp.CFL
	if cfl <= 0 {
		cfl = 0.4
	}
	// Steps at the CFL floor.
	dx := (p.X1 - p.X0) / float64(n)
	f := math.Ceil(tEnd / (cfl * dx) * float64(p.Dim))
	if sp.AMR {
		f = math.Ceil(tEnd * rate / cfl)
	}
	steps := int64(math.MaxInt64)
	if f < math.MaxInt64 {
		steps = max(int64(f), 1)
	}
	if sp.MaxSteps > 0 {
		steps = min(steps, int64(sp.MaxSteps))
	}
	stages := int64(2)
	switch sp.Integrator {
	case "rk1":
		stages = 1
	case "rk3":
		stages = 3
	}
	return satMul(satMul(zones, steps), stages), nil
}

// rootBlocks and blockN are the AMR root-block count and block side the
// run will use (rhsc.NewAMRSim's defaults for 0).
func (sp *JobSpec) rootBlocks() int {
	if sp.RootBlocks == 0 {
		return 8
	}
	return sp.RootBlocks
}

func (sp *JobSpec) blockN() int {
	if sp.BlockN == 0 {
		return 16
	}
	return sp.BlockN
}

// satMul returns a·b for a, b ≥ 0, or math.MaxInt64 when that overflows.
func satMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

func problemOrDefault(name string) string {
	if name == "" {
		return "sod"
	}
	return name
}

// State is a job's lifecycle phase.
type State string

const (
	// Queued jobs passed admission and wait for a worker.
	Queued State = "queued"
	// Running jobs own a worker.
	Running State = "running"
	// Parked jobs were preempted: their exact checkpoint waits in the
	// queue and resumes bit-identically when a worker frees up.
	Parked State = "parked"
	// Done jobs ran to their end time or step budget.
	Done State = "done"
	// Failed jobs hit an unrecoverable error or a worker panic; the
	// failure is absorbed per-job and the daemon keeps serving.
	Failed State = "failed"
	// RejectedState jobs were refused at admission (Status.Reason says
	// why); they never consumed a worker.
	RejectedState State = "rejected"
)

// terminal reports whether no further transitions can happen.
func (s State) terminal() bool {
	return s == Done || s == Failed || s == RejectedState
}

// Status is a point-in-time public snapshot of a job, also the
// progress-stream event payload (one JSON line per event).
type Status struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	State    State  `json:"state"`
	// Reason explains rejections and failures.
	Reason string `json:"reason,omitempty"`

	// Device names the routed fleet device hosting the current segment
	// (empty: unrouted host capacity, or no placer configured).
	Device string `json:"device,omitempty"`

	Step        int     `json:"step"`
	Time        float64 `json:"time"`
	TEnd        float64 `json:"tend,omitempty"`
	Zones       int     `json:"zones,omitempty"`
	ZoneUpdates int64   `json:"zone_updates,omitempty"`
	Preemptions int     `json:"preemptions,omitempty"`

	// Resilience counters from the per-job guard (serial) or the AMR
	// fail-safe accounting.
	Troubled  int64 `json:"troubled,omitempty"`
	Repaired  int64 `json:"repaired,omitempty"`
	Retries   int64 `json:"retries,omitempty"`
	Injected  int64 `json:"injected,omitempty"`
	Fallbacks int64 `json:"fallbacks,omitempty"`

	// Fingerprint is the FNV-1a digest of the final state (terminal
	// states only): equal fingerprints mean bitwise-identical solutions,
	// which is how preempted-and-resumed runs are verified against
	// uninterrupted ones.
	Fingerprint string `json:"fingerprint,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
}

// job is the server-private record behind a Status.
type job struct {
	id   string
	spec JobSpec
	seq  uint64 // arrival order; preserved across parking for FIFO-within-priority
	cost int64  // reserved admission charge

	mu          sync.Mutex
	state       State
	reason      string
	device      string // routed device of the current/last segment
	step        int
	t, tEnd     float64
	zones       int
	zoneUpdates int64
	preemptions int
	fault       rhsc.FaultSnapshot
	fingerprint uint64
	snapshot    []byte        // exact checkpoint while parked (or spooled)
	stepBase    int           // committed steps before the current segment (serial)
	zuBase      int64         // zone updates of earlier segments (serial; AMR persists its own)
	ran         time.Duration // running wall-clock of finished segments (watchdog)
	result      []byte        // final deliverable (CSV)
	submitted   time.Time
	started     time.Time
	finished    time.Time
	subs        []chan Status

	// preempt asks the owning worker to checkpoint and park between
	// steps; set by the scheduler, cleared by the worker.
	preempt atomic.Bool

	heapIdx int
}

// status snapshots the job under its lock.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *job) statusLocked() Status {
	st := Status{
		ID: j.id, Tenant: j.spec.tenant(), Priority: j.spec.Priority,
		State: j.state, Reason: j.reason, Device: j.device,
		Step: j.step, Time: j.t, TEnd: j.tEnd,
		Zones: j.zones, ZoneUpdates: j.zoneUpdates, Preemptions: j.preemptions,
		Troubled: j.fault.Troubled, Repaired: j.fault.Repaired,
		Retries: j.fault.Retries, Injected: j.fault.Injected,
		Fallbacks: j.fault.Fallbacks,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
	}
	if j.state.terminal() && j.fingerprint != 0 {
		st.Fingerprint = fmt.Sprintf("%016x", j.fingerprint)
	}
	return st
}

// publish snapshots the job and fans the event out to subscribers;
// terminal events close the subscriptions.
func (j *job) publish() {
	j.mu.Lock()
	st := j.statusLocked()
	subs := j.subs
	if st.State.terminal() {
		j.subs = nil
	}
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- st:
		default: // slow consumer: drop intermediate events, never block a worker
		}
		if st.State.terminal() {
			close(ch)
		}
	}
}

// subscribe registers a progress channel; the returned cancel is
// idempotent. A job already terminal delivers one final event and a
// closed channel.
func (j *job) subscribe() (<-chan Status, func()) {
	ch := make(chan Status, 16)
	j.mu.Lock()
	if j.state.terminal() {
		st := j.statusLocked()
		j.mu.Unlock()
		ch <- st
		close(ch)
		return ch, func() {}
	}
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	cancel := func() {
		j.mu.Lock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
		j.mu.Unlock()
	}
	return ch, cancel
}

// jobHeap orders by priority (higher first), then arrival (earlier
// first): strict priority with FIFO fairness inside a class. Parked
// jobs keep their original seq, so a resumed job never starves behind
// later arrivals of its own priority.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, k int) bool {
	if h[i].spec.Priority != h[k].spec.Priority {
		return h[i].spec.Priority > h[k].spec.Priority
	}
	return h[i].seq < h[k].seq
}
func (h jobHeap) Swap(i, k int) {
	h[i], h[k] = h[k], h[i]
	h[i].heapIdx = i
	h[k].heapIdx = k
}
func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIdx = -1
	*h = old[:n-1]
	return j
}
