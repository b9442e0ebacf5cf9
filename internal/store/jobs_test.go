package store

import (
	"fmt"
	"testing"
	"time"
)

// succeed is a job that succeeds with no result.
func succeed() (any, error) { return nil, nil }

// TestQueueRunsJobsInOrder pins that Run runs the job in the caller and
// files its record before returning: IDs follow the order of the Runs, the
// record Get serves is the one Run returned, and its timestamps are
// ordered enqueued ≤ started ≤ finished.
func TestQueueRunsJobsInOrder(t *testing.T) {
	q := NewQueue(8)

	var order []int
	var ids []string
	for i := 0; i < 5; i++ {
		enqueued := time.Now()
		job := q.Run("ingest", enqueued, func() (any, error) {
			order = append(order, i)
			return i, nil
		})
		if len(order) != i+1 {
			t.Fatalf("Run returned before its job ran (%d runs after job %d)", len(order), i)
		}
		if job.Status != JobDone || job.Result != i || job.Kind != "ingest" {
			t.Fatalf("job %d = %+v", i, job)
		}
		if job.StartedAt == nil || job.FinishedAt == nil || job.StartedAt.Before(enqueued.UTC()) ||
			job.FinishedAt.Before(*job.StartedAt) || !job.EnqueuedAt.Equal(enqueued) {
			t.Errorf("timestamps = %+v", job)
		}
		if got, outcome := q.Get(job.ID); outcome != GetFound || got.ID != job.ID || got.Status != JobDone || got.Result != i {
			t.Errorf("Get(%s) = (%+v, %d), want the record Run returned", job.ID, got, outcome)
		}
		ids = append(ids, job.ID)
	}
	for i, id := range ids {
		if want := q.jobID(i + 1); id != want {
			t.Fatalf("job IDs = %v, want sequence numbers in Run order", ids)
		}
	}
}

func TestQueueFailedJob(t *testing.T) {
	q := NewQueue(8)
	job := q.Run("ingest", time.Now(), func() (any, error) {
		return "partial", fmt.Errorf("boom")
	})
	if job.Status != JobFailed || job.Error != "boom" || job.Result != nil {
		t.Fatalf("job = %+v, want failed with the job's error and no result", job)
	}
	if got, _ := q.Get(job.ID); got.Status != JobFailed || got.Error != "boom" {
		t.Fatalf("Get = %+v", got)
	}
}

// TestQueuePermanentFailureDoesNotRetry pins that a job runs once: Run
// calls a failing job exactly one time, and its record stays failed with
// the job's own error text however many jobs are filed after it.
func TestQueuePermanentFailureDoesNotRetry(t *testing.T) {
	q := NewQueue(8)
	runs := 0
	job := q.Run("ingest", time.Now(), func() (any, error) {
		runs++
		return nil, fmt.Errorf("store is read-only")
	})
	q.Run("ingest", time.Now(), succeed)
	done, _ := q.Get(job.ID)
	if done.Status != JobFailed || done.Error != "store is read-only" {
		t.Fatalf("job = %+v, want failed with the job's error", done)
	}
	if runs != 1 {
		t.Errorf("the failing job ran %d times, want exactly 1", runs)
	}
}

func TestQueueGetUnknown(t *testing.T) {
	q := NewQueue(8)
	if _, outcome := q.Get("nope"); outcome != GetUnknown {
		t.Fatalf("Get(\"nope\") outcome = %d, want GetUnknown", outcome)
	}
	// IDs that merely look plausible but were never issued are unknown,
	// not evicted.
	for _, id := range []string{"j1", "j07", "j", "j-1", "j1x", q.jobID(1)} {
		if _, outcome := q.Get(id); outcome != GetUnknown {
			t.Errorf("Get(%q) on an empty queue = %d, want GetUnknown", id, outcome)
		}
	}
}

// TestQueueIDsDoNotAliasAcrossEpochs pins the restart-safety of job IDs:
// an ID issued by one queue (one process lifetime) must be GetUnknown to
// another queue, never resolve to an unrelated job or report evicted.
func TestQueueIDsDoNotAliasAcrossEpochs(t *testing.T) {
	q1 := NewQueue(8)
	q2 := NewQueue(8)
	j1 := q1.Run("ingest", time.Now(), succeed)
	j2 := q2.Run("ingest", time.Now(), succeed)
	if j1.ID == j2.ID {
		t.Fatalf("two queues issued the same job ID %q", j1.ID)
	}
	if _, outcome := q2.Get(j1.ID); outcome != GetUnknown {
		t.Errorf("queue 2 reported %d for queue 1's job ID, want GetUnknown", outcome)
	}
}

// TestQueueHistoryBound is the regression test for unbounded finished-job
// retention: with a history of 3, only the three most recently filed
// records survive; older ones report GetEvicted (they were real jobs).
func TestQueueHistoryBound(t *testing.T) {
	q := NewQueue(3)

	var ids []string
	for i := 0; i < 8; i++ {
		ids = append(ids, q.Run("ingest", time.Now(), succeed).ID)
	}
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
	if _, outcome := q.Get(q.jobID(9)); outcome != GetUnknown {
		t.Errorf("the next, unissued ID outcome = %d, want GetUnknown", outcome)
	}
}

// TestQueueCounters pins the lifetime totals the metrics endpoint
// scrapes: done and failed accumulate, and they never reset as the
// finished ring evicts records.
func TestQueueCounters(t *testing.T) {
	q := NewQueue(1)
	for i := 0; i < 3; i++ {
		q.Run("ok", time.Now(), succeed)
	}
	q.Run("fail", time.Now(), func() (any, error) { return nil, fmt.Errorf("transient") })

	c := q.Counters()
	if c.Done != 3 {
		t.Errorf("Done = %d, want 3", c.Done)
	}
	if c.Failed != 1 {
		t.Errorf("Failed = %d, want 1", c.Failed)
	}
}
