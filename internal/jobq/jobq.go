// Package jobq is a bounded FIFO job queue with a fixed worker pool,
// built for the synthesis service: submissions beyond the queue capacity
// are rejected immediately (the server maps that to HTTP 429), every job
// carries an observable status and free-form progress note, queued or
// running jobs can be cancelled (running jobs via their context), and
// shutdown completes in-flight work while rejecting new submissions.
//
// The queue stores finished jobs until they are explicitly removed or the
// retention bound evicts the oldest, so clients can poll results after
// completion.
package jobq

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/fault"
)

// Status is a job's lifecycle state.
type Status string

// The job lifecycle: Queued → Running → one of Done/Failed/Canceled.
// Queued jobs cancelled before a worker picks them up go straight to
// Canceled.
const (
	Queued   Status = "queued"
	Running  Status = "running"
	Done     Status = "done"
	Failed   Status = "failed"
	Canceled Status = "canceled"
)

// Terminal reports whether a job in this status will never change again.
func (s Status) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Fn is the work a job performs. It must honour ctx (return once ctx is
// done) and may call progress with short human-readable notes; the latest
// note is visible in job snapshots.
type Fn func(ctx context.Context, progress func(note string)) (any, error)

// Job is an immutable snapshot of one job's state.
type Job struct {
	ID       string
	Label    string // caller-supplied request label (e.g. a request ID)
	Status   Status
	Progress string
	Created  time.Time
	Started  time.Time // zero until the job leaves the queue
	Finished time.Time // zero until the job reaches a terminal status
	Result   any       // Fn's return value when Status == Done
	Err      string    // failure or cancellation cause otherwise
	// Stack is the goroutine stack captured when the job's Fn panicked;
	// empty for every other failure mode. It rides the snapshot so the
	// service can log the crash site instead of just "job panicked".
	Stack string
}

// Wait is how long the job sat queued before a worker picked it up
// (zero while still queued, or for jobs that never ran: completed-
// in-place cache hits, rejected submissions).
func (j Job) Wait() time.Duration {
	if j.Started.IsZero() {
		return 0
	}
	return j.Started.Sub(j.Created)
}

// Errors returned by Submit.
var (
	// ErrQueueFull signals backpressure: capacity jobs are already
	// waiting. The caller should retry later (HTTP 429).
	ErrQueueFull = errors.New("jobq: queue full")
	// ErrShutdown rejects submissions after Shutdown started.
	ErrShutdown = errors.New("jobq: shutting down")
)

// job is the internal mutable record.
type job struct {
	Job
	fn     Fn
	cancel context.CancelCauseFunc // non-nil while running
}

// jobPool recycles job records evicted from the retention ring. A
// record's lifetime is fully lock-bounded: every read or write of a
// *job happens under q.mu, snapshots leave as Job values, and eviction
// (the only release point) deletes the map entry in the same critical
// section — so once retire drops a record, nothing can reach it again
// and it is safe to scrub and reuse. Under sustained serving load the
// queue churns one record per request; recycling keeps that O(1) in
// allocations instead of O(requests).
var jobPool = sync.Pool{New: func() any { return new(job) }}

// newJob draws a record from the pool. Records are scrubbed on release
// (see retire), so pooled entries never pin a stale Result or Fn.
func newJob() *job { return jobPool.Get().(*job) }

// Queue is the bounded FIFO queue and its worker pool.
type Queue struct {
	mu       sync.Mutex
	cond     *sync.Cond // signals workers: pending work or shutdown
	jobs     map[string]*job
	pending  []string // FIFO of queued job IDs
	order    []string // terminal job IDs, oldest first (retention ring)
	capacity int
	workers  int
	busy     int
	nextID   uint64
	closed   bool
	retain   int
	wg       sync.WaitGroup
	baseCtx  context.Context
	baseStop context.CancelFunc

	// detached counts running detached jobs (SubmitDetached). They hold
	// no worker and no FIFO slot but are still bounded by capacity.
	detached int

	// onTerminal observes every terminal transition; see OnTerminal.
	onTerminal func(Job)
	// flt injects worker-level faults when armed; nil in production.
	flt *fault.Plan
	// Cumulative terminal-transition totals. Retention eviction removes
	// jobs from q.jobs but never lowers these.
	doneTotal     int64
	failedTotal   int64
	canceledTotal int64
}

// Stats is a point-in-time aggregate of the queue.
type Stats struct {
	Workers  int // pool size
	Busy     int // workers currently executing a job
	Queued   int // jobs waiting in the FIFO
	Capacity int // maximum queued jobs before Submit rejects
	Detached int // running detached jobs (SubmitDetached)
	// Terminal jobs by status since the queue started. They are
	// monotonic (retention eviction never lowers them), which is what
	// Prometheus counter semantics require, and reading them is O(1):
	// Stats never scans the retained job records.
	DoneTotal     int64
	FailedTotal   int64
	CanceledTotal int64
}

// New starts a queue with the given worker-pool size and queue capacity.
// Both must be at least 1. Finished jobs are retained for polling; once
// more than retain (default 1024 when <= 0) terminal jobs accumulate, the
// oldest are evicted.
func New(workers, capacity, retain int) *Queue {
	if workers < 1 {
		workers = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	if retain <= 0 {
		retain = 1024
	}
	q := &Queue{
		jobs:     make(map[string]*job),
		capacity: capacity,
		workers:  workers,
		retain:   retain,
	}
	q.cond = sync.NewCond(&q.mu)
	q.baseCtx, q.baseStop = context.WithCancel(context.Background())
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// Submit enqueues fn and returns the new job's ID, or ErrQueueFull /
// ErrShutdown without side effects.
func (q *Queue) Submit(fn Fn) (string, error) { return q.SubmitLabeled("", fn) }

// SubmitLabeled is Submit with a caller-supplied label (typically the
// request ID of the submission) carried on every snapshot of the job, so
// logs and observers can correlate queue activity with requests.
func (q *Queue) SubmitLabeled(label string, fn Fn) (string, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return "", ErrShutdown
	}
	if len(q.pending) >= q.capacity {
		return "", ErrQueueFull
	}
	q.nextID++
	id := fmt.Sprintf("j%06d", q.nextID)
	j := newJob()
	j.Job = Job{ID: id, Label: label, Status: Queued, Created: time.Now()}
	j.fn = fn
	q.jobs[id] = j
	q.pending = append(q.pending, id)
	q.cond.Signal()
	return id, nil
}

// SubmitDetached runs fn immediately in its own goroutine instead of
// waiting for a pool worker. It exists for jobs that spend their life
// blocked on another node — forwarding a synthesis request across the
// cluster — where parking a pool worker invites distributed deadlock:
// with one worker per node, node A forwarding to B while B forwards to A
// would leave both pools blocked polling each other. Detached jobs hold
// no worker and no FIFO slot but are still bounded by the queue
// capacity (ErrQueueFull beyond it), carry normal job records (Get,
// Cancel, OnTerminal, retention all apply), and participate in
// Shutdown: drain waits for them, and the hard-cancel path cancels
// their contexts.
func (q *Queue) SubmitDetached(label string, fn Fn) (string, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return "", ErrShutdown
	}
	if q.detached >= q.capacity {
		q.mu.Unlock()
		return "", ErrQueueFull
	}
	q.nextID++
	id := fmt.Sprintf("j%06d", q.nextID)
	now := time.Now()
	j := newJob()
	j.Job = Job{ID: id, Label: label, Status: Running, Created: now, Started: now}
	ctx, cancel := context.WithCancelCause(q.baseCtx)
	j.cancel = cancel
	q.jobs[id] = j
	q.detached++
	flt := q.flt
	// wg.Add under the same lock as the closed check: Shutdown flips
	// closed before waiting, so the counter can never grow after Wait.
	q.wg.Add(1)
	q.mu.Unlock()

	go func() {
		defer q.wg.Done()
		progress := func(note string) {
			q.mu.Lock()
			j.Progress = note
			q.mu.Unlock()
		}
		result, stack, err := runJob(ctx, fn, progress, flt)

		q.mu.Lock()
		q.detached--
		j.cancel = nil
		j.fn = nil
		j.Finished = time.Now()
		switch {
		case err == nil:
			j.Status = Done
			j.Result = result
		case errors.Is(err, context.Canceled):
			j.Status = Canceled
			j.Err = err.Error()
		default:
			j.Status = Failed
			j.Err = err.Error()
			j.Stack = stack
		}
		snap, cb := q.retire(j), q.onTerminal
		q.mu.Unlock()
		cancel(nil)
		if cb != nil {
			cb(snap)
		}
	}()
	return id, nil
}

// SetFault arms the queue's fault-injection points (worker panic, slow
// job, dispatch stall) on the given plan. A nil plan — the default —
// disables injection entirely. Install before submitting work.
func (q *Queue) SetFault(p *fault.Plan) {
	q.mu.Lock()
	q.flt = p
	q.mu.Unlock()
}

// OnTerminal installs an observer invoked once for every job that
// reaches a terminal status — worker completion, queued-job cancellation,
// shutdown hard-cancel and Complete alike. The observer receives an
// immutable snapshot and runs outside the queue lock, so it may call
// back into the queue; it must not block for long, or terminal
// transitions serialize behind it. Install before submitting work.
func (q *Queue) OnTerminal(fn func(Job)) {
	q.mu.Lock()
	q.onTerminal = fn
	q.mu.Unlock()
}

// Complete registers an already-finished job (e.g. a cache hit served
// without work) and returns its ID. It never blocks and is exempt from
// the capacity bound: no queue slot or worker is ever consumed.
func (q *Queue) Complete(label string, result any, progress string) (string, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return "", ErrShutdown
	}
	q.nextID++
	id := fmt.Sprintf("j%06d", q.nextID)
	now := time.Now()
	j := newJob()
	j.Job = Job{
		ID: id, Label: label, Status: Done, Progress: progress,
		Created: now, Started: now, Finished: now, Result: result,
	}
	q.jobs[id] = j
	snap, cb := q.retire(j), q.onTerminal
	q.mu.Unlock()
	if cb != nil {
		cb(snap)
	}
	return id, nil
}

// Get returns a snapshot of the job, if known.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.Job, true
}

// Cancel requests cancellation of a job. A queued job is cancelled
// immediately; a running job has its context cancelled and will reach
// Canceled once its Fn returns. Cancelling a terminal or unknown job is a
// no-op. The return value reports whether a cancellation was delivered.
func (q *Queue) Cancel(id string) bool {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.Status.Terminal() {
		q.mu.Unlock()
		return false
	}
	if j.Status == Queued {
		// Remove from the FIFO so a worker never picks it up.
		for i, pid := range q.pending {
			if pid == id {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				break
			}
		}
		j.Status = Canceled
		j.Err = context.Canceled.Error()
		j.Finished = time.Now()
		snap, cb := q.retire(j), q.onTerminal
		q.mu.Unlock()
		if cb != nil {
			cb(snap)
		}
		return true
	}
	running := j.cancel != nil
	if running {
		j.cancel(context.Canceled)
	}
	q.mu.Unlock()
	return running
}

// Stats returns current aggregate counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Workers: q.workers, Busy: q.busy, Queued: len(q.pending), Capacity: q.capacity,
		Detached:  q.detached,
		DoneTotal: q.doneTotal, FailedTotal: q.failedTotal, CanceledTotal: q.canceledTotal,
	}
}

// Shutdown stops accepting submissions, lets the workers drain every
// queued and running job, and returns once the pool is idle. If ctx
// expires first, all remaining jobs are cancelled and ctx's error is
// returned after the workers exit.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Deadline hit: hard-cancel everything still in flight, then wait
		// for the workers to notice and exit.
		q.baseStop()
		q.mu.Lock()
		var snaps []Job
		for _, id := range q.pending {
			if j := q.jobs[id]; j != nil && j.Status == Queued {
				j.Status = Canceled
				j.Err = context.Cause(ctx).Error()
				j.Finished = time.Now()
				snaps = append(snaps, q.retire(j))
			}
		}
		q.pending = nil
		cb := q.onTerminal
		q.cond.Broadcast()
		q.mu.Unlock()
		if cb != nil {
			for _, s := range snaps {
				cb(s)
			}
		}
		<-done
		return ctx.Err()
	}
}

// retire appends a terminal job to the retention ring, evicting the
// oldest beyond the bound, bumps the cumulative totals, and returns the
// job's snapshot for the OnTerminal observer. retire is the single point
// every terminal transition passes through. Caller holds q.mu.
func (q *Queue) retire(j *job) Job {
	switch j.Status {
	case Done:
		q.doneTotal++
	case Failed:
		q.failedTotal++
	case Canceled:
		q.canceledTotal++
	}
	q.order = append(q.order, j.ID)
	for len(q.order) > q.retain {
		// Eviction is the record's release point: the map entry goes away
		// under the same lock that guards every *job access, so nothing can
		// observe the scrub. Zeroing drops the Result/fn references before
		// the record idles in the pool.
		if old := q.jobs[q.order[0]]; old != nil {
			delete(q.jobs, q.order[0])
			*old = job{}
			jobPool.Put(old)
		}
		q.order = q.order[1:]
	}
	return j.Job
}

// worker is the run loop of one pool goroutine.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.pending) == 0 && q.closed {
			q.mu.Unlock()
			return
		}
		id := q.pending[0]
		q.pending = q.pending[1:]
		j := q.jobs[id]
		ctx, cancel := context.WithCancelCause(q.baseCtx)
		j.cancel = cancel
		j.Status = Running
		j.Started = time.Now()
		q.busy++
		fn := j.fn
		flt := q.flt
		q.mu.Unlock()

		// Injected dispatch stall: the worker sits on the job between
		// dequeue and run, modelling a scheduler hiccup. Cancellation
		// still cuts it short via the job's context.
		flt.Sleep(ctx, fault.JobqQueueStall)

		progress := func(note string) {
			q.mu.Lock()
			j.Progress = note
			q.mu.Unlock()
		}
		result, stack, err := runJob(ctx, fn, progress, flt)

		q.mu.Lock()
		q.busy--
		j.cancel = nil
		j.fn = nil
		j.Finished = time.Now()
		switch {
		case err == nil:
			j.Status = Done
			j.Result = result
		case errors.Is(err, context.Canceled):
			j.Status = Canceled
			j.Err = err.Error()
		default:
			j.Status = Failed
			j.Err = err.Error()
			j.Stack = stack
		}
		snap, cb := q.retire(j), q.onTerminal
		q.mu.Unlock()
		cancel(nil)
		if cb != nil {
			cb(snap)
		}
	}
}

// runJob executes fn, converting a panic into a failure so one bad job
// cannot take the worker (and the service) down. The panic's stack is
// captured and returned alongside the error for the job record.
func runJob(ctx context.Context, fn Fn, progress func(string), flt *fault.Plan) (result any, stack string, err error) {
	defer func() {
		if r := recover(); r != nil {
			if perr, ok := r.(error); ok {
				err = fmt.Errorf("jobq: job panicked: %w", perr)
			} else {
				err = fmt.Errorf("jobq: job panicked: %v", r)
			}
			stack = string(debug.Stack())
		}
	}()
	if flt.Fire(fault.JobqWorkerPanic) {
		panic(&fault.Error{Point: fault.JobqWorkerPanic})
	}
	flt.Sleep(ctx, fault.JobqJobSlow)
	result, err = fn(ctx, progress)
	return result, "", err
}
