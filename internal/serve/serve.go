// Package serve is the simulation-as-a-service layer: a multi-tenant
// job server that runs catalogued simulations (quickstart 1-D problems
// through full AMR runs) to completion on a bounded worker pool.
//
// Scheduling model (see docs/SERVING.md):
//
//   - Admission control. Every job is validated and charged a
//     worst-case zone-update cost at submit time; jobs exceeding the
//     per-job ceiling, their tenant's budget or concurrency quota, or
//     the queue capacity are rejected immediately — the server never
//     accepts work it cannot eventually run.
//   - Priority queue. Admitted jobs wait in a strict-priority,
//     FIFO-within-class queue.
//   - Checkpoint-based preemption. When a higher-priority job arrives
//     and every worker is busy, the lowest-priority running job is
//     checkpointed through the exact (conserved + primitive)
//     checkpoint of its solver or tree, parked back into the queue, and
//     later resumed round-off-exactly from its snapshot: preemption is
//     invisible in the final state, bit for bit.
//   - Fault isolation. Worker panics and unrecoverable numerical
//     failures are absorbed per job: the job fails, the daemon and
//     every other job keep running. Serial jobs run under the
//     resilience guard, so injected or organic numerical faults are
//     retried with halved steps and the dissipative fallback first.
//   - Graceful drain. Drain checkpoints every in-flight job into a
//     spool directory; a later LoadSpool re-admits them, resuming
//     parked work bit-exactly.
package serve

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"rhsc"
	"rhsc/internal/durable"
	"rhsc/internal/metrics"
	"rhsc/internal/output"
)

// Quota bounds one tenant. Zero fields are unlimited.
type Quota struct {
	// MaxActive caps the tenant's in-flight jobs (queued + parked +
	// running).
	MaxActive int `json:"max_active,omitempty"`
	// Budget caps the tenant's lifetime zone-update spend: admission
	// reserves each job's worst-case cost estimate and reconciles to
	// actual usage when the job finishes.
	Budget int64 `json:"budget,omitempty"`
}

// Config sizes the server. Zero fields take the documented defaults.
type Config struct {
	// Workers is the pool size (default 2).
	Workers int
	// MaxQueue caps waiting jobs — queued plus parked (default 64).
	MaxQueue int
	// MaxJobCost rejects any single job whose worst-case cost estimate
	// exceeds it (0 = unlimited).
	MaxJobCost int64
	// DefaultQuota applies to tenants absent from Quotas.
	DefaultQuota Quota
	// Quotas maps tenant names to their quota.
	Quotas map[string]Quota
	// Placer, when non-nil, routes each job segment onto fleet capacity
	// (FleetPlacer over the hetero router) instead of the flat worker
	// pool; when it refuses — every device drained or dead — the segment
	// falls back to unrouted host capacity. See placer.go.
	Placer Placer
	// SpoolFS is the filesystem the spool's durable store commits
	// through (default the real OS; tests inject durable.FaultFS).
	SpoolFS durable.FS
	// JobTimeout caps each job's cumulative *running* wall-clock time
	// (time parked or queued does not count). A job past the cap is
	// cancelled between steps with ErrJobTimeout and counted in the
	// TimedOut metric. 0 disables the watchdog.
	JobTimeout time.Duration
}

// ErrJobTimeout is the typed cancellation cause of the per-job
// wall-clock watchdog; a timed-out job's Reason carries its text.
var ErrJobTimeout = errors.New("serve: job exceeded its wall-clock timeout")

// tenantAcct tracks one tenant's quota consumption.
type tenantAcct struct {
	quota    Quota
	active   int   // queued + parked + running jobs
	reserved int64 // admission-reserved cost of active jobs
	used     int64 // actual zone updates of finished jobs
}

// Server is the job scheduler and worker pool. Create with New; all
// methods are safe for concurrent use.
type Server struct {
	cfg Config
	// C is the serving counter set.
	C *metrics.ServeCounters
	// D is the durability counter set of the spool.
	D *metrics.DurableCounters

	mu        sync.Mutex
	cond      *sync.Cond
	queue     jobHeap
	jobs      map[string]*job
	running   map[*job]struct{}
	tenants   map[string]*tenantAcct
	seq       uint64
	ids       uint64
	stopping  bool
	drainErrs []error
	wg        sync.WaitGroup
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.SpoolFS == nil {
		cfg.SpoolFS = durable.OS
	}
	s := &Server{
		cfg:     cfg,
		C:       &metrics.ServeCounters{},
		D:       &metrics.DurableCounters{},
		jobs:    make(map[string]*job),
		running: make(map[*job]struct{}),
		tenants: make(map[string]*tenantAcct),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics snapshots the serving counters.
func (s *Server) Metrics() metrics.ServeSnapshot { return s.C.Snapshot() }

// DurableMetrics snapshots the durability counters (spool commits,
// recovered generations, detected corruptions, quarantined entries).
func (s *Server) DurableMetrics() metrics.DurableSnapshot { return s.D.Snapshot() }

// tenantLocked returns (creating if needed) the accounting bucket.
func (s *Server) tenantLocked(name string) *tenantAcct {
	t, ok := s.tenants[name]
	if !ok {
		q := s.cfg.DefaultQuota
		if qq, ok := s.cfg.Quotas[name]; ok {
			q = qq
		}
		t = &tenantAcct{quota: q}
		s.tenants[name] = t
	}
	return t
}

// Submit runs admission control and either queues the job or records a
// rejection. The returned Status is the job's admission snapshot — state
// Queued, or RejectedState with Reason set — taken before s.mu is
// released, so no worker can have moved the job on by then (lock order
// s.mu → j.mu, as in Drain). An error is returned only for invalid specs
// (the HTTP layer maps it to 400; rejections map to 429).
func (s *Server) Submit(spec JobSpec) (Status, error) {
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	cost, err := spec.Cost()
	if err != nil {
		return Status{}, err
	}
	now := time.Now()

	s.mu.Lock()
	s.ids++
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j%06d", s.ids),
		spec:      spec,
		seq:       s.seq,
		cost:      cost,
		state:     Queued,
		submitted: now,
		heapIdx:   -1,
	}
	s.jobs[j.id] = j

	reject := func(reason string) (Status, error) {
		j.state = RejectedState
		j.reason = reason
		j.finished = now
		s.C.Rejected.Add(1)
		st := j.status()
		s.mu.Unlock()
		return st, nil
	}
	if s.stopping {
		return reject("server draining")
	}
	if s.cfg.MaxJobCost > 0 && cost > s.cfg.MaxJobCost {
		return reject(fmt.Sprintf("job cost %d exceeds per-job limit %d", cost, s.cfg.MaxJobCost))
	}
	ten := s.tenantLocked(spec.tenant())
	if ten.quota.MaxActive > 0 && ten.active >= ten.quota.MaxActive {
		return reject(fmt.Sprintf("tenant %q concurrency limit %d reached",
			spec.tenant(), ten.quota.MaxActive))
	}
	if ten.quota.Budget > 0 && ten.used+ten.reserved+cost > ten.quota.Budget {
		return reject(fmt.Sprintf("tenant %q budget exhausted (%d used + %d reserved + %d requested > %d)",
			spec.tenant(), ten.used, ten.reserved, cost, ten.quota.Budget))
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		return reject(fmt.Sprintf("queue full (%d waiting)", len(s.queue)))
	}

	ten.active++
	ten.reserved += cost
	heap.Push(&s.queue, j)
	s.C.Accepted.Add(1)
	s.C.QueueDepth.Store(int64(len(s.queue)))
	s.maybePreemptLocked(spec.Priority)
	s.cond.Signal()
	st := j.status()
	s.mu.Unlock()
	return st, nil
}

// maybePreemptLocked flags the lowest-priority running job for
// checkpoint-preemption when the pool is saturated and a strictly
// higher-priority job just arrived. Among equal-priority victims the
// latest arrival yields (it has lost the least progress on average).
// Called with s.mu held.
func (s *Server) maybePreemptLocked(pri int) {
	if len(s.running) < s.cfg.Workers {
		return // an idle worker will pick the arrival up directly
	}
	var victim *job
	for j := range s.running {
		if j.spec.Priority >= pri {
			continue
		}
		if victim == nil || j.spec.Priority < victim.spec.Priority ||
			(j.spec.Priority == victim.spec.Priority && j.seq > victim.seq) {
			victim = j
		}
	}
	if victim != nil {
		victim.preempt.Store(true)
	}
}

// Get returns a job's status.
func (s *Server) Get(id string) (Status, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	return j.status(), true
}

// List returns every known job's status in arrival order.
func (s *Server) List() []Status {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	sort.Slice(js, func(i, k int) bool { return js[i].seq < js[k].seq })
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	return out
}

// Watch subscribes to a job's progress stream. The channel delivers a
// Status per progress event and closes after the terminal one; call
// cancel when done early.
func (s *Server) Watch(id string) (<-chan Status, func(), bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	ch, cancel := j.subscribe()
	return ch, cancel, true
}

// Wait blocks until the job reaches a terminal state and returns it.
func (s *Server) Wait(id string) (Status, error) {
	ch, cancel, ok := s.Watch(id)
	if !ok {
		return Status{}, fmt.Errorf("serve: unknown job %q", id)
	}
	defer cancel()
	for range ch {
	}
	st, _ := s.Get(id)
	return st, nil
}

// Result returns a finished job's deliverable (CSV), or false when the
// job is unknown or not Done.
func (s *Server) Result(id string) ([]byte, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Done || j.result == nil {
		return nil, false
	}
	return j.result, true
}

// --- worker pool --------------------------------------------------------

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopping {
			s.cond.Wait()
		}
		if s.stopping {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*job)
		s.running[j] = struct{}{}
		s.C.QueueDepth.Store(int64(len(s.queue)))
		s.C.BusyWorkers.Add(1)
		s.mu.Unlock()

		s.runJob(j)

		s.mu.Lock()
		delete(s.running, j)
		s.C.BusyWorkers.Add(-1)
		s.mu.Unlock()
	}
}

// runJob drives one job segment: fresh start or bit-exact resume, step
// loop with preemption checks, and the terminal transition. Worker
// panics are absorbed here — the job fails, the daemon survives.
func (s *Server) runJob(j *job) {
	// Placement: lease routed capacity for this segment. A failed
	// segment — panic or numerical error — faults the hosting device's
	// health; a clean park or completion credits it. Re-acquiring per
	// segment means a job parked on a device that has since drained
	// resumes somewhere healthy.
	var lease Lease
	if s.cfg.Placer != nil {
		if l, ok := s.cfg.Placer.Acquire(j.cost); ok {
			lease = l
		}
	}
	j.mu.Lock()
	if lease != nil {
		j.device = lease.Device()
	} else {
		j.device = ""
	}
	j.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			s.fail(j, fmt.Sprintf("worker panic absorbed: %v", r))
		}
		if lease != nil {
			j.mu.Lock()
			failed := j.state == Failed
			j.mu.Unlock()
			lease.Release(failed)
		}
	}()

	segStart := time.Now()
	j.mu.Lock()
	spec := j.spec
	snap := j.snapshot
	j.snapshot = nil
	resumed := snap != nil
	j.state = Running
	if j.started.IsZero() {
		j.started = segStart
	}
	stepBase := j.stepBase
	ranBase := j.ran
	j.mu.Unlock()
	if resumed {
		s.C.Parked.Add(-1)
		s.C.Resumed.Add(1)
	}

	var runner rhsc.JobRunner
	var err error
	if resumed {
		runner, err = rhsc.ResumeJobRunner(bytes.NewReader(snap), spec.options(), spec.AMR, spec.TEnd)
		if err == nil {
			runner.SetStepBase(stepBase)
		}
	} else {
		runner, err = rhsc.NewJobRunner(spec.options(), spec.amrOptions(), spec.TEnd)
	}
	if err != nil {
		s.fail(j, buildReason(err, resumed))
		return
	}
	if spec.Inject != nil {
		if err := runner.InjectFault(rhsc.FaultInjection{
			AtStep: spec.Inject.AtStep, Count: spec.Inject.Count,
			Cell: spec.Inject.Cell, Unphysical: spec.Inject.Unphysical,
			InStage: spec.Inject.InStage,
		}); err != nil {
			s.fail(j, err.Error())
			return
		}
	}
	j.mu.Lock()
	j.tEnd = runner.TEnd()
	j.mu.Unlock()
	j.publish()

	report := spec.ReportEvery
	if report <= 0 {
		report = 16
	}
	for {
		if runner.Time() >= runner.TEnd()-1e-14 {
			s.complete(j, runner)
			return
		}
		if spec.MaxSteps > 0 && runner.Steps() >= spec.MaxSteps {
			s.complete(j, runner)
			return
		}
		if s.cfg.JobTimeout > 0 && ranBase+time.Since(segStart) > s.cfg.JobTimeout {
			s.C.TimedOut.Add(1)
			s.fail(j, fmt.Sprintf("%v (ran %v of allowed %v)",
				ErrJobTimeout, (ranBase+time.Since(segStart)).Round(time.Millisecond), s.cfg.JobTimeout))
			return
		}
		if j.preempt.Load() {
			if s.park(j, runner, segStart) {
				return
			}
		}
		if _, err := runner.StepOnce(); err != nil {
			s.progress(j, runner)
			s.fail(j, err.Error())
			return
		}
		if spec.PanicAtStep > 0 && runner.Steps() >= spec.PanicAtStep {
			panic(fmt.Sprintf("injected panic at step %d", runner.Steps()))
		}
		s.progress(j, runner)
		if runner.Steps()%report == 0 {
			j.publish()
		}
	}
}

// progress folds the runner's counters into the job record.
func (s *Server) progress(j *job, runner rhsc.JobRunner) {
	j.mu.Lock()
	j.step = runner.Steps()
	j.t = runner.Time()
	j.zones = runner.Zones()
	j.zoneUpdates = j.zuBase + runner.ZoneUpdates()
	j.fault = runner.FaultStats()
	j.mu.Unlock()
}

// park checkpoints the running job and returns it to the queue; the
// resumed continuation is bit-identical to never having parked. A
// checkpoint failure outside a drain abandons the preemption (the job
// keeps its worker); during a drain it fails the job and records the
// error so the daemon can exit nonzero.
func (s *Server) park(j *job, runner rhsc.JobRunner, segStart time.Time) bool {
	var buf bytes.Buffer
	if err := runner.CheckpointExact(&buf); err != nil {
		j.preempt.Store(false)
		s.mu.Lock()
		stopping := s.stopping
		if stopping {
			s.drainErrs = append(s.drainErrs,
				fmt.Errorf("serve: drain checkpoint of %s: %w", j.id, err))
		}
		s.mu.Unlock()
		if stopping {
			s.fail(j, fmt.Sprintf("drain checkpoint failed: %v", err))
			return true
		}
		return false
	}
	s.progress(j, runner)
	j.mu.Lock()
	j.snapshot = buf.Bytes()
	j.ran += time.Since(segStart) // parked time stays off the watchdog clock
	j.stepBase = runner.Steps()
	if !j.spec.AMR {
		// Serial solvers count zone updates per segment; AMR trees
		// persist theirs inside the checkpoint.
		j.zuBase += runner.ZoneUpdates()
	}
	j.state = Parked
	j.preemptions++
	j.preempt.Store(false)
	j.mu.Unlock()
	s.C.Preempted.Add(1)
	s.C.Parked.Add(1)

	s.mu.Lock()
	heap.Push(&s.queue, j)
	s.C.QueueDepth.Store(int64(len(s.queue)))
	s.cond.Signal()
	s.mu.Unlock()
	j.publish()
	return true
}

// complete finishes a job: deliverable, fingerprint, quota
// reconciliation.
func (s *Server) complete(j *job, runner rhsc.JobRunner) {
	var res bytes.Buffer
	resErr := runner.WriteResult(&res)
	s.progress(j, runner)
	j.mu.Lock()
	j.state = Done
	j.finished = time.Now()
	j.fingerprint = runner.Fingerprint()
	if resErr == nil {
		j.result = res.Bytes()
	} else {
		j.reason = fmt.Sprintf("result serialisation failed: %v", resErr)
	}
	// Counted before the state is visible: a Wait that subscribes to an
	// already-terminal job returns at once and may read Metrics next.
	s.C.Completed.Add(1)
	j.mu.Unlock()
	s.release(j)
	j.publish()
}

// fail terminates a job on an absorbed error.
func (s *Server) fail(j *job, reason string) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.state = Failed
	j.reason = reason
	j.finished = time.Now()
	s.C.Failed.Add(1) // before the state is visible, as in complete
	j.mu.Unlock()
	s.release(j)
	j.publish()
}

// release returns a terminal job's quota reservation and charges its
// actual usage.
func (s *Server) release(j *job) {
	j.mu.Lock()
	used := j.zoneUpdates
	j.mu.Unlock()
	s.mu.Lock()
	ten := s.tenantLocked(j.spec.tenant())
	ten.active--
	ten.reserved -= j.cost
	ten.used += used
	s.mu.Unlock()
}

// buildReason classifies a construction or resume failure using the
// checkpoint error taxonomy, so operators can tell an unretryable
// snapshot (corrupt bytes, config drift) from transient I/O.
func buildReason(err error, resumed bool) string {
	if !resumed {
		return "job construction failed: " + err.Error()
	}
	switch {
	case errors.Is(err, output.ErrCheckpointCorrupt):
		return "resume failed (fatal: snapshot corrupt): " + err.Error()
	case errors.Is(err, output.ErrCheckpointMismatch):
		return "resume failed (fatal: snapshot/config mismatch): " + err.Error()
	default:
		return "resume failed (possibly transient): " + err.Error()
	}
}

// --- drain and spool ----------------------------------------------------

// spoolMeta is the JSON metadata section of a spooled job record.
type spoolMeta struct {
	ID          string  `json:"id"`
	Spec        JobSpec `json:"spec"`
	StepBase    int     `json:"step_base"`
	ZuBase      int64   `json:"zu_base"`
	Preemptions int     `json:"preemptions"`
	HasSnapshot bool    `json:"has_snapshot"`
}

// Drain stops the server gracefully: admission closes, every running
// job is checkpoint-preempted, and once the pool is idle the whole
// queue (parked snapshots and never-started jobs alike) is committed
// to a durable store in dir — one framed, CRC-guarded <id>.g*.dur
// record per job holding metadata and snapshot together, published via
// write-temp/fsync/rename/dirsync so a crash mid-drain can never leave
// a meta/snapshot pair that disagrees. The returned error joins every
// checkpoint or spool failure; nil means every in-flight job is safely
// on disk (the daemon exits nonzero only otherwise). An empty dir
// skips spooling (Close).
func (s *Server) Drain(dir string) error {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.stopping = true
	for j := range s.running {
		j.preempt.Store(true)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()

	s.mu.Lock()
	errs := s.drainErrs
	if dir != "" {
		st, err := durable.Open(s.cfg.SpoolFS, dir, s.D)
		if err != nil {
			errs = append(errs, err)
		} else {
			for len(s.queue) > 0 {
				j := heap.Pop(&s.queue).(*job)
				if err := spoolJob(st, j); err != nil {
					errs = append(errs, err)
				}
			}
			s.C.QueueDepth.Store(0)
		}
	}
	s.mu.Unlock()
	return errors.Join(errs...)
}

// Close stops the server without spooling (tests, benchmarks). Running
// jobs are parked in memory and discarded.
func (s *Server) Close() { _ = s.Drain("") }

// spoolJob commits one queued/parked job into the spool store: a
// single framed record of two sections (meta JSON, then the snapshot
// when one exists). Atomicity comes from the store's commit protocol —
// the record is visible in full or not at all.
func spoolJob(st *durable.Store, j *job) error {
	j.mu.Lock()
	meta := spoolMeta{
		ID: j.id, Spec: j.spec, StepBase: j.stepBase, ZuBase: j.zuBase,
		Preemptions: j.preemptions, HasSnapshot: j.snapshot != nil,
	}
	snap := j.snapshot
	j.mu.Unlock()
	blob, err := json.Marshal(&meta)
	if err != nil {
		return fmt.Errorf("serve: spool %s: %w", j.id, err)
	}
	_, err = st.Commit(j.id, func(w io.Writer) error {
		if err := durable.WriteSection(w, blob); err != nil {
			return err
		}
		if snap != nil {
			return durable.WriteSection(w, snap)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("serve: spool %s: %w", j.id, err)
	}
	return nil
}

// LoadSpool re-admits jobs spooled by a previous Drain: parked jobs
// rejoin the queue with their snapshot (and resume bit-exactly),
// never-started jobs rejoin as queued. Records are verified end to end
// before anything is trusted; corrupt generations fall back to an
// older valid one when the store holds it, and unreadable or unusable
// entries are quarantined to <dir>/corrupt/ with a .reason note
// instead of wedging the boot. Consumed records are removed. Files
// that are not store records — a stray <id>.json/<id>.ckpt pair, say —
// are neither loaded nor touched. Returns the number of jobs loaded;
// per-job failures are joined into the error but do not stop the
// sweep.
func (s *Server) LoadSpool(dir string) (int, error) {
	st, err := durable.Open(s.cfg.SpoolFS, dir, s.D)
	if err != nil {
		return 0, err
	}
	names, err := st.Names()
	if err != nil {
		return 0, err
	}
	loaded := 0
	var errs []error
	for _, name := range names {
		var meta spoolMeta
		var snap []byte
		_, err := st.Load(name, func(r io.Reader) error {
			mb, err := durable.ReadSection(r)
			if err != nil {
				return err
			}
			if err := json.Unmarshal(mb, &meta); err != nil {
				// Inside a CRC-verified frame, unparseable JSON is a
				// writer bug, but corrupt classification keeps the
				// fallback-to-older-generation path in play.
				return durable.Corrupt("serve: spool meta", err)
			}
			if meta.HasSnapshot {
				if snap, err = durable.ReadSection(r); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			// Corrupt generations are already quarantined by the store.
			errs = append(errs, fmt.Errorf("serve: spool %s: %w", name, err))
			continue
		}
		if err := s.readmit(meta, snap); err != nil {
			// Verified bytes the server cannot use (spec drift, draining):
			// move them aside so the next boot is not poisoned the same way.
			errs = append(errs, err)
			_ = st.QuarantineName(name, err.Error())
			continue
		}
		if err := st.Remove(name); err != nil {
			errs = append(errs, err)
		}
		loaded++
	}

	return loaded, errors.Join(errs...)
}

// readmit enqueues one spooled job, bypassing admission (its quota was
// granted in the previous life; budgets restart with the process).
func (s *Server) readmit(meta spoolMeta, snap []byte) error {
	if err := meta.Spec.Validate(); err != nil {
		return fmt.Errorf("serve: spooled job %s: %w", meta.ID, err)
	}
	cost, err := meta.Spec.Cost()
	if err != nil {
		return fmt.Errorf("serve: spooled job %s: %w", meta.ID, err)
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return fmt.Errorf("serve: spooled job %s: server draining", meta.ID)
	}
	s.ids++
	s.seq++
	id := meta.ID
	if _, taken := s.jobs[id]; taken || id == "" {
		id = fmt.Sprintf("j%06d", s.ids)
	}
	j := &job{
		id: id, spec: meta.Spec, seq: s.seq, cost: cost,
		state: Queued, submitted: now, heapIdx: -1,
		stepBase: meta.StepBase, zuBase: meta.ZuBase,
		preemptions: meta.Preemptions, snapshot: snap,
	}
	if snap != nil {
		j.state = Parked
		s.C.Parked.Add(1)
	}
	ten := s.tenantLocked(meta.Spec.tenant())
	ten.active++
	ten.reserved += cost
	s.jobs[id] = j
	heap.Push(&s.queue, j)
	s.C.Accepted.Add(1)
	s.C.QueueDepth.Store(int64(len(s.queue)))
	s.cond.Signal()
	return nil
}
