package store

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitStatus polls until the job leaves the pending/running states.
func waitStatus(t *testing.T, q *Queue, id string) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		job, outcome := q.Get(id)
		if outcome != GetFound {
			t.Fatalf("job %s disappeared (outcome %d)", id, outcome)
		}
		if job.Status != JobPending && job.Status != JobRunning {
			return job
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Job{}
}

func TestQueueRunsJobsInOrder(t *testing.T) {
	q := NewQueue(16, 0)
	defer q.Shutdown(context.Background())

	var order []int
	var last Job
	for i := 0; i < 5; i++ {
		i := i
		job, err := q.Enqueue("ingest", func(context.Context) (any, error) {
			order = append(order, i) // safe: single worker serializes runs
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		last = job
	}
	done := waitStatus(t, q, last.ID)
	if done.Status != JobDone || done.Result != 4 {
		t.Fatalf("last job = %+v", done)
	}
	if len(order) != 5 {
		t.Fatalf("ran %d jobs, want 5", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("run order = %v, want FIFO", order)
		}
	}
	if done.StartedAt == nil || done.FinishedAt == nil || done.FinishedAt.Before(*done.StartedAt) {
		t.Errorf("timestamps = %+v", done)
	}
}

func TestQueueFailedJob(t *testing.T) {
	q := NewQueue(4, 0)
	defer q.Shutdown(context.Background())
	job, err := q.Enqueue("ingest", func(context.Context) (any, error) {
		return nil, fmt.Errorf("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, q, job.ID)
	if done.Status != JobFailed || done.Error != "boom" {
		t.Fatalf("job = %+v", done)
	}
}

// TestQueuePermanentFailureDoesNotRetry pins that a job runs once: the
// worker does not run a failed job again, and the job fails with its own
// error text. A job enqueued behind it has finished by the time the check
// runs, so a second run of the first could not still be pending.
func TestQueuePermanentFailureDoesNotRetry(t *testing.T) {
	q := NewQueue(4, 0)
	defer q.Shutdown(context.Background())
	var runs atomic.Int64
	job, err := q.Enqueue("ingest", func(context.Context) (any, error) {
		runs.Add(1)
		return nil, fmt.Errorf("store is read-only")
	})
	if err != nil {
		t.Fatal(err)
	}
	next, err := q.Enqueue("ingest", func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, q, next.ID)
	done, _ := q.Get(job.ID)
	if done.Status != JobFailed || done.Error != "store is read-only" {
		t.Fatalf("job = %+v, want failed with the job's error", done)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("the failing job ran %d times, want exactly 1", n)
	}
}

func TestQueueGetUnknown(t *testing.T) {
	q := NewQueue(4, 0)
	defer q.Shutdown(context.Background())
	if _, outcome := q.Get("nope"); outcome != GetUnknown {
		t.Fatalf("Get(\"nope\") outcome = %d, want GetUnknown", outcome)
	}
	// IDs that merely look plausible but were never issued are unknown,
	// not evicted.
	for _, id := range []string{"j1", "j07", "j", "j-1", "j1x"} {
		if _, outcome := q.Get(id); outcome != GetUnknown {
			t.Errorf("Get(%q) on an empty queue = %d, want GetUnknown", id, outcome)
		}
	}
}

// TestQueueIDsDoNotAliasAcrossEpochs pins the restart-safety of job IDs:
// an ID issued by one queue (one process lifetime) must be GetUnknown to
// another queue, never resolve to an unrelated job or report evicted.
func TestQueueIDsDoNotAliasAcrossEpochs(t *testing.T) {
	q1 := NewQueue(4, 0)
	defer q1.Shutdown(context.Background())
	q2 := NewQueue(4, 0)
	defer q2.Shutdown(context.Background())

	j1, err := q1.Enqueue("ingest", func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	j2, err := q2.Enqueue("ingest", func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, q1, j1.ID)
	waitStatus(t, q2, j2.ID)
	if j1.ID == j2.ID {
		t.Fatalf("two queues issued the same job ID %q", j1.ID)
	}
	if _, outcome := q2.Get(j1.ID); outcome != GetUnknown {
		t.Errorf("queue 2 reported %d for queue 1's job ID, want GetUnknown", outcome)
	}
}

// TestQueueHistoryBound is the regression test for unbounded finished-job
// retention: with a history of 3, only the three most recently finished
// records survive; older ones report GetEvicted (they were real jobs) and
// pending/running jobs are never evicted.
func TestQueueHistoryBound(t *testing.T) {
	q := NewQueue(16, 3)
	defer q.Shutdown(context.Background())

	var ids []string
	var last Job
	for i := 0; i < 8; i++ {
		job, err := q.Enqueue("ingest", func(context.Context) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
		last = job
	}
	waitStatus(t, q, last.ID)

	for _, id := range ids[:5] {
		if _, outcome := q.Get(id); outcome != GetEvicted {
			t.Errorf("old job %s outcome = %d, want GetEvicted", id, outcome)
		}
	}
	for _, id := range ids[5:] {
		if job, outcome := q.Get(id); outcome != GetFound || job.Status != JobDone {
			t.Errorf("recent job %s = (%+v, %d), want a retained done record", id, job, outcome)
		}
	}

	// A job still running is retained no matter how many jobs finish
	// after it started... (single worker: nothing finishes while it
	// runs); the pending→running states simply never enter the ring.
	release := make(chan struct{})
	running, err := q.Enqueue("slow", func(context.Context) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, outcome := q.Get(running.ID); outcome != GetFound {
		t.Errorf("in-flight job outcome = %d, want GetFound", outcome)
	}
	close(release)
	waitStatus(t, q, running.ID)
}

func TestQueueShutdownDrains(t *testing.T) {
	q := NewQueue(16, 0)
	ran := 0
	var last Job
	for i := 0; i < 3; i++ {
		job, err := q.Enqueue("ingest", func(context.Context) (any, error) {
			time.Sleep(5 * time.Millisecond)
			ran++
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		last = job
	}
	if err := q.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Errorf("shutdown drained %d of 3 jobs", ran)
	}
	if job, _ := q.Get(last.ID); job.Status != JobDone {
		t.Errorf("last job = %+v after drain", job)
	}
	if _, err := q.Enqueue("ingest", func(context.Context) (any, error) { return nil, nil }); err == nil {
		t.Error("Enqueue succeeded after shutdown")
	}
}

func TestQueueShutdownCancelsSlowJob(t *testing.T) {
	q := NewQueue(16, 0)
	started := make(chan struct{})
	job, err := q.Enqueue("slow", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // runs until shutdown forces cancellation
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown reported a clean drain despite the stuck job")
	}
	if done, _ := q.Get(job.ID); done.Status != JobCanceled {
		t.Errorf("job = %+v, want canceled", done)
	}
}

func TestQueueBacklogFull(t *testing.T) {
	q := NewQueue(1, 0)
	release := make(chan struct{})
	// First job occupies the worker; fill the 1-slot backlog behind it.
	if _, err := q.Enqueue("block", func(context.Context) (any, error) {
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	full := false
	for i := 0; i < 3; i++ {
		if _, err := q.Enqueue("ingest", func(context.Context) (any, error) { return nil, nil }); err != nil {
			full = true
			break
		}
	}
	close(release)
	if !full {
		t.Error("queue with capacity 1 never reported a full backlog")
	}
	q.Shutdown(context.Background())
}

// TestQueueEnqueueShutdownRace hammers Enqueue against Shutdown; before
// Enqueue held the mutex across its send this panicked with "send on
// closed channel" under load.
func TestQueueEnqueueShutdownRace(t *testing.T) {
	for i := 0; i < 30; i++ {
		q := NewQueue(2, 0)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					// Errors (shut down / backlog full) are expected; a
					// panic is the failure mode under test.
					_, _ = q.Enqueue("x", func(context.Context) (any, error) { return nil, nil })
				}
			}()
		}
		if err := q.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

func TestQueueDepth(t *testing.T) {
	q := NewQueue(4, 0)
	defer q.Shutdown(context.Background())
	if q.Depth() != 0 {
		t.Fatalf("fresh queue depth %d", q.Depth())
	}
	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := q.Enqueue("block", func(context.Context) (any, error) {
		close(started)
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	job, err := q.Enqueue("wait", func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if q.Depth() != 2 {
		t.Fatalf("depth %d with one running and one pending job, want 2", q.Depth())
	}
	close(release)
	if got := waitStatus(t, q, job.ID); got.Status != JobDone {
		t.Fatalf("job status %s, want done", got.Status)
	}
	if q.Depth() != 0 {
		t.Fatalf("depth %d after drain, want 0", q.Depth())
	}
}

// TestQueueCounters pins the lifetime totals the metrics endpoint
// scrapes: enqueued, done and failed all accumulate, and they never reset
// as the finished ring evicts records.
func TestQueueCounters(t *testing.T) {
	q := NewQueue(16, 1)
	defer q.Shutdown(context.Background())

	var last Job
	for i := 0; i < 3; i++ {
		job, err := q.Enqueue("ok", func(context.Context) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		last = job
	}
	waitStatus(t, q, last.ID)
	fail, err := q.Enqueue("fail", func(context.Context) (any, error) {
		return nil, fmt.Errorf("transient")
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for q.Counters().Failed == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	_ = fail

	c := q.Counters()
	if c.Enqueued != 4 {
		t.Errorf("Enqueued = %d, want 4", c.Enqueued)
	}
	if c.Done != 3 {
		t.Errorf("Done = %d, want 3", c.Done)
	}
	if c.Failed != 1 {
		t.Errorf("Failed = %d, want 1", c.Failed)
	}
	if c.Canceled != 0 {
		t.Errorf("Canceled = %d, want 0", c.Canceled)
	}
}
