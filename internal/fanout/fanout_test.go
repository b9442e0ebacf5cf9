package fanout

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// eachProcs runs fn at GOMAXPROCS 1 and 4, and checks after each that every
// budget slot has been given back.
func eachProcs(t *testing.T, fn func(t *testing.T, procs int)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			fn(t, procs)
			if n := len(budget()); n != 0 {
				t.Fatalf("%d budget slots still held after Run returned", n)
			}
		})
	}
}

// goid is the calling goroutine's ID, read from its stack header.
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

func TestRunEveryIndexOnce(t *testing.T) {
	eachProcs(t, func(t *testing.T, procs int) {
		for _, n := range []int{0, 1, 2, procs, 1000} {
			counts := make([]atomic.Int32, n)
			var workers atomic.Int32
			caller := goid()
			var onCaller atomic.Bool
			Run(n, func() func(int) bool {
				workers.Add(1)
				return func(i int) bool {
					if goid() == caller {
						onCaller.Store(true)
					}
					counts[i].Add(1)
					return true
				}
			})
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d: index %d ran %d times", n, i, c)
				}
			}
			if w := int(workers.Load()); w != min(procs, n) {
				t.Fatalf("n=%d: %d workers started, want min(GOMAXPROCS, n) = %d", n, w, min(procs, n))
			}
			if onCaller.Load() {
				t.Fatalf("n=%d: a body ran on the calling goroutine", n)
			}
		}
	})
}

// TestRunClaimsAscending checks that every worker sees its indices in
// ascending order and that one worker's body never runs twice at once.
func TestRunClaimsAscending(t *testing.T) {
	eachProcs(t, func(t *testing.T, procs int) {
		var mu sync.Mutex
		var seen [][]int
		Run(1000, func() func(int) bool {
			mu.Lock()
			w := len(seen)
			seen = append(seen, nil)
			mu.Unlock()
			var busy atomic.Bool
			return func(i int) bool {
				if !busy.CompareAndSwap(false, true) {
					t.Errorf("worker %d's body entered twice at once", w)
				}
				mu.Lock()
				seen[w] = append(seen[w], i)
				mu.Unlock()
				busy.Store(false)
				return true
			}
		})
		total := 0
		for w, idx := range seen {
			for k := 1; k < len(idx); k++ {
				if idx[k] <= idx[k-1] {
					t.Fatalf("worker %d claimed %d after %d", w, idx[k], idx[k-1])
				}
			}
			total += len(idx)
		}
		if total != 1000 {
			t.Fatalf("%d bodies ran, want 1000", total)
		}
	})
}

// TestRunStopsClaiming returns false from one body: of the bodies that
// start after it, each other worker runs at most the one it had already
// claimed.
func TestRunStopsClaiming(t *testing.T) {
	eachProcs(t, func(t *testing.T, procs int) {
		var stopped atomic.Bool
		var after, workers atomic.Int32
		Run(1000, func() func(int) bool {
			workers.Add(1)
			return func(i int) bool {
				if stopped.Load() {
					after.Add(1)
					// Give the stopping worker time to record the stop.
					time.Sleep(5 * time.Millisecond)
					return true
				}
				if i == 10 {
					stopped.Store(true)
					return false
				}
				return true
			}
		})
		if !stopped.Load() {
			t.Fatal("index 10 never ran")
		}
		if a, w := after.Load(), workers.Load(); a > w-1 {
			t.Fatalf("%d bodies ran after the false return; want at most workers-1 = %d", a, w-1)
		}
	})
}

// holdSlots takes n budget slots until the test ends.
func holdSlots(t *testing.T, n int) {
	slots := budget()
	for range n {
		select {
		case slots <- struct{}{}:
		default:
			t.Fatalf("budget already full: %d of %d slots held", len(slots), cap(slots))
		}
	}
	t.Cleanup(func() {
		for range n {
			<-slots
		}
	})
}

// await waits for wg and reports whether it finished within a generous
// deadline, so a worker that never starts fails the test instead of
// hanging it.
func await(wg *sync.WaitGroup) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

// TestRunFirstWorkerWithoutBudget spends the whole budget first: Run still
// starts its first worker and finishes on it alone.
func TestRunFirstWorkerWithoutBudget(t *testing.T) {
	eachProcs(t, func(t *testing.T, procs int) {
		t.Run("spent", func(t *testing.T) {
			holdSlots(t, cap(budget()))
			var workers, bodies atomic.Int32
			Run(100, func() func(int) bool {
				workers.Add(1)
				return func(int) bool {
					bodies.Add(1)
					return true
				}
			})
			if w, b := workers.Load(), bodies.Load(); w != 1 || b != 100 {
				t.Fatalf("with no budget: %d workers ran %d bodies, want 1 worker and 100 bodies", w, b)
			}
		})
	})
}

// TestRunNested runs a Run inside every worker of an outer Run that leaves
// no budget slot free: the inner ones complete, each on its first worker.
func TestRunNested(t *testing.T) {
	eachProcs(t, func(t *testing.T, procs int) {
		t.Run("spent", func(t *testing.T) {
			// The outer Run's procs workers take the procs-1 slots left.
			holdSlots(t, cap(budget())-(procs-1))
			var entered, finished sync.WaitGroup
			entered.Add(procs)
			finished.Add(procs)
			var innerWorkers, innerBodies atomic.Int32
			Each(procs, func(int) bool {
				// Every outer worker holds its index from before the first
				// inner Run starts until the last one ends, so the budget
				// stays spent throughout.
				entered.Done()
				if !await(&entered) {
					t.Errorf("fewer than %d outer workers started", procs)
				}
				defer func() {
					finished.Done()
					await(&finished)
				}()
				if n := len(budget()); n != cap(budget()) {
					t.Errorf("%d of %d budget slots held inside the outer Run", n, cap(budget()))
				}
				Run(50, func() func(int) bool {
					innerWorkers.Add(1)
					return func(int) bool {
						innerBodies.Add(1)
						return true
					}
				})
				return true
			})
			if w, b := int(innerWorkers.Load()), int(innerBodies.Load()); w != procs || b != 50*procs {
				t.Fatalf("inner Runs: %d workers ran %d bodies, want %d and %d", w, b, procs, 50*procs)
			}
		})
	})
}
