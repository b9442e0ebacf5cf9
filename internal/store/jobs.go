package store

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// JobStatus is a job's lifecycle state: pending → running → done | failed,
// or canceled when a shutdown discards it before or during execution.
type JobStatus string

const (
	JobPending  JobStatus = "pending"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobCanceled JobStatus = "canceled"
)

// Job is one queued unit of work, as reported to clients. Timestamps use
// the server clock; Result is set when the job succeeds, Error when it
// fails (the job's own error) or is canceled. A job runs once: the one
// production job, a store append, fails deterministically, so running it
// again could not help.
type Job struct {
	ID         string     `json:"id"`
	Kind       string     `json:"kind"`
	Status     JobStatus  `json:"status"`
	Error      string     `json:"error,omitempty"`
	Result     any        `json:"result,omitempty"`
	EnqueuedAt time.Time  `json:"enqueued_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// ErrQueueClosed and ErrQueueFull classify Enqueue rejections: the first
// is terminal (the process is shutting down), the second is backpressure —
// the caller should retry after the backlog drains, and the service layer
// maps it to 429 with a Retry-After hint.
var (
	ErrQueueClosed = errors.New("store: queue is shut down")
	ErrQueueFull   = errors.New("store: job backlog full")
)

// queued pairs a job ID with the work to run.
type queued struct {
	id  string
	run func(context.Context) (any, error)
}

// Queue runs enqueued jobs on a single background worker, serializing
// mutations of the shared store so ingest order — and with it the store's
// document positions — is the order jobs were enqueued in. Finished job
// records stay queryable in a bounded ring (completion order, oldest
// evicted first), so sustained ingest cannot grow the record map without
// bound; Get reports evicted records distinctly from never-issued IDs.
type Queue struct {
	mu     sync.Mutex
	jobs   map[string]*Job
	seq    int
	closed bool
	// depth counts enqueued-but-unfinished jobs (pending + running).
	depth int
	// counters accumulates lifetime job totals for the metrics endpoint;
	// guarded by mu.
	counters QueueCounters
	// finished ring: IDs of terminal jobs in completion order, capped at
	// keep; the head is evicted (removed from jobs) when the cap is hit.
	finished []string
	keep     int
	// epoch is a random per-process token embedded in every job ID.
	// Durable stores make server restarts a routine, client-visible
	// workflow; without the epoch, a pre-restart job ID would alias the
	// new process's sequence and report some unrelated job's state.
	epoch string

	ch     chan queued
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// NewQueue starts a queue whose backlog holds up to buffer pending jobs
// (values < 1 select 64); Enqueue fails fast when the backlog is full
// rather than blocking the caller. history bounds how many finished job
// records stay queryable (values < 1 select 1024): the oldest finished
// record is evicted beyond the cap, while pending and running jobs are
// always retained.
//
// erlint:ignore the worker goroutine is queue-lifetime, ended by Shutdown(ctx), which is where cancellation enters
func NewQueue(buffer, history int) *Queue {
	if buffer < 1 {
		buffer = 64
	}
	if history < 1 {
		history = 1024
	}
	var eb [4]byte
	rand.Read(eb[:]) // never fails (crypto/rand contract since Go 1.24)
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		jobs:   make(map[string]*Job),
		keep:   history,
		epoch:  hex.EncodeToString(eb[:]),
		ch:     make(chan queued, buffer),
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go q.worker()
	return q
}

// jobID names job number n of this queue's epoch.
func (q *Queue) jobID(n int) string {
	return fmt.Sprintf("j%s-%d", q.epoch, n)
}

func (q *Queue) worker() {
	defer close(q.done)
	for item := range q.ch {
		if q.ctx.Err() != nil {
			q.finish(item.id, nil, q.ctx.Err())
			continue
		}
		q.setRunning(item.id)
		result, err := item.run(q.ctx)
		q.finish(item.id, result, err)
	}
}

// Enqueue registers a job and hands it to the worker. It fails when the
// queue is shut down or the backlog is full. The mutex is held across the
// non-blocking send so Enqueue can never race Shutdown's close(q.ch) into
// a send on a closed channel.
func (q *Queue) Enqueue(kind string, run func(context.Context) (any, error)) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return Job{}, ErrQueueClosed
	}
	// The sequence number is consumed only on success, so every ID at or
	// below q.seq names a job that really was issued — the invariant
	// Get's evicted/unknown distinction rests on.
	job := &Job{
		ID:         q.jobID(q.seq + 1),
		Kind:       kind,
		Status:     JobPending,
		EnqueuedAt: time.Now().UTC(),
	}
	select {
	case q.ch <- queued{id: job.ID, run: run}:
		q.seq++
		q.depth++
		q.counters.Enqueued++
		q.jobs[job.ID] = job
		return *job, nil
	default:
		return Job{}, fmt.Errorf("%w (%d pending)", ErrQueueFull, cap(q.ch))
	}
}

// Depth reports the number of jobs enqueued but not yet finished (pending
// plus running) — the queue's backpressure signal, exposed by the service
// as the ersolve_queue_depth gauge.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}

// QueueCounters are the queue's lifetime job totals, accumulated since
// the queue was constructed — the counter-shaped complement of Depth's
// instantaneous backpressure gauge, exposed by the service as the
// ersolve_queue_jobs_total family.
type QueueCounters struct {
	// Enqueued counts jobs accepted by Enqueue.
	Enqueued int64
	// Done, Failed and Canceled count terminal outcomes.
	Done     int64
	Failed   int64
	Canceled int64
}

// Counters returns a copy of the queue's lifetime totals.
func (q *Queue) Counters() QueueCounters {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.counters
}

// GetOutcome classifies a Get lookup.
type GetOutcome int

const (
	// GetUnknown: the ID was never issued by this queue.
	GetUnknown GetOutcome = iota
	// GetFound: the job record is available.
	GetFound
	// GetEvicted: the job finished, but its record aged out of the
	// bounded history ring.
	GetEvicted
)

// Get returns a copy of the job's current state. A job that finished long
// enough ago for its record to be evicted reports GetEvicted, letting the
// service layer answer 410 Gone instead of an indistinguishable 404. IDs
// from another epoch — typically another process's queue, before a server
// restart — are GetUnknown: this queue can say nothing about them.
func (q *Queue) Get(id string) (Job, GetOutcome) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if job, ok := q.jobs[id]; ok {
		return *job, GetFound
	}
	rest, hasPrefix := strings.CutPrefix(id, "j")
	epoch, num, hasDash := strings.Cut(rest, "-")
	if hasPrefix && hasDash && epoch == q.epoch {
		if n, err := strconv.Atoi(num); err == nil && n >= 1 && n <= q.seq && num == strconv.Itoa(n) {
			return Job{}, GetEvicted
		}
	}
	return Job{}, GetUnknown
}

func (q *Queue) setRunning(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if job, ok := q.jobs[id]; ok {
		now := time.Now().UTC()
		job.Status = JobRunning
		job.StartedAt = &now
	}
}

func (q *Queue) finish(id string, result any, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job, ok := q.jobs[id]
	if !ok {
		return
	}
	q.depth--
	now := time.Now().UTC()
	job.FinishedAt = &now
	switch {
	case err == nil:
		job.Status = JobDone
		job.Result = result
		q.counters.Done++
	case q.ctx.Err() != nil && errors.Is(err, context.Canceled):
		job.Status = JobCanceled
		job.Error = "canceled by shutdown"
		q.counters.Canceled++
	default:
		job.Status = JobFailed
		job.Error = err.Error()
		q.counters.Failed++
	}
	q.finished = append(q.finished, id)
	for len(q.finished) > q.keep {
		delete(q.jobs, q.finished[0])
		q.finished = q.finished[1:]
	}
}

// Shutdown stops accepting new jobs and drains the backlog. If ctx expires
// before the backlog drains, the remaining jobs are canceled (the running
// job's context fires) and Shutdown returns ctx.Err(); a clean drain
// returns nil.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
	q.mu.Unlock()

	select {
	case <-q.done:
		return nil
	case <-ctx.Done():
		q.cancel()
		<-q.done
		return ctx.Err()
	}
}
