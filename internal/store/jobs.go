package store

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// JobStatus is a finished job's outcome: done or failed.
type JobStatus string

const (
	JobDone   JobStatus = "done"
	JobFailed JobStatus = "failed"
)

// Job is one finished unit of work, as reported to clients. Timestamps use
// the server clock: EnqueuedAt is when the caller accepted the work,
// StartedAt when it began running, FinishedAt when it returned. Result is
// set when the job succeeds, Error when it fails. A job runs once: the one
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

// Queue is the book of finished job records: Run executes a job in the
// caller's goroutine and files its record under a fresh ID. Ordering runs
// is the caller's business (the service holds one mutex across each ingest
// and its Run, so IDs follow ingest order). Records stay queryable in a
// bounded ring (completion order, oldest evicted first), so sustained
// ingest cannot grow the record map without bound; Get reports evicted
// records distinctly from never-issued IDs. Get never waits on a running
// job: the book's mutex is held only to file or read a record.
type Queue struct {
	mu   sync.Mutex
	jobs map[string]*Job
	seq  int
	// counters accumulates lifetime job totals for the metrics endpoint;
	// guarded by mu.
	counters QueueCounters
	// finished ring: IDs of filed jobs in completion order, capped at keep;
	// the head is evicted (removed from jobs) when the cap is hit.
	finished []string
	keep     int
	// epoch is a random per-process token embedded in every job ID.
	// Durable stores make server restarts a routine, client-visible
	// workflow; without the epoch, a pre-restart job ID would alias the
	// new process's sequence and report some unrelated job's state.
	epoch string
}

// NewQueue returns an empty book. history bounds how many finished job
// records stay queryable: the oldest record is evicted beyond the cap.
func NewQueue(history int) *Queue {
	var eb [4]byte
	rand.Read(eb[:]) // never fails (crypto/rand contract since Go 1.24)
	return &Queue{
		jobs:  make(map[string]*Job),
		keep:  history,
		epoch: hex.EncodeToString(eb[:]),
	}
}

// jobID names job number n of this queue's epoch.
func (q *Queue) jobID(n int) string {
	return fmt.Sprintf("j%s-%d", q.epoch, n)
}

// Run runs a job of the given kind, accepted at enqueued, and returns its
// filed record: done with run's result, or failed with its error's text.
func (q *Queue) Run(kind string, enqueued time.Time, run func() (any, error)) Job {
	started := time.Now().UTC()
	result, err := run()
	finished := time.Now().UTC()

	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	job := &Job{ID: q.jobID(q.seq), Kind: kind, Status: JobDone, Result: result,
		EnqueuedAt: enqueued.UTC(), StartedAt: &started, FinishedAt: &finished}
	if err != nil {
		job.Status, job.Result, job.Error = JobFailed, nil, err.Error()
		q.counters.Failed++
	} else {
		q.counters.Done++
	}
	q.jobs[job.ID] = job
	q.finished = append(q.finished, job.ID)
	for len(q.finished) > q.keep {
		delete(q.jobs, q.finished[0])
		q.finished = q.finished[1:]
	}
	return *job
}

// QueueCounters are the queue's lifetime job totals, accumulated since
// the queue was constructed and exposed by the service as the
// ersolve_queue_jobs_total family.
type QueueCounters struct {
	Done   int64
	Failed int64
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

// Get returns a copy of the job's record. A job that finished long enough
// ago for its record to be evicted reports GetEvicted, letting the service
// layer answer 410 Gone instead of an indistinguishable 404. IDs from
// another epoch — typically another process's queue, before a server
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
