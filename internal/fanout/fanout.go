// Package fanout is the resolver's one way to spend cores on independent
// work: blocks of a run, rows of a block's similarity matrices, new
// documents and components of the blocking index. Every CPU fan-out goes through Run, so
// nested fan-outs share one process-wide budget of extra workers and add up
// instead of multiplying.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// budget bounds the extra workers, beyond each Run's first, across every
// Run in flight in the process: a Run nested inside another's workers (the
// matrices of a block inside a run's block workers) takes a slot only when
// one is free, so the process never holds GOMAXPROCS² runnable CPU-bound
// goroutines. The floor of 3 keeps the concurrent paths exercised, and
// race-checked, on one core.
var budget = sync.OnceValue(func() chan struct{} {
	return make(chan struct{}, max(runtime.GOMAXPROCS(0)-1, 3))
})

// Run calls a body for every index in [0, n) on min(GOMAXPROCS, n) new
// goroutines and returns when they have all finished. The first worker
// always starts; each further one starts only while the budget has a free
// slot, and gives it back when it ends. Workers claim indices in ascending
// order from one counter. worker is called once by each worker to make its
// body, so a worker can own scratch across the indices it claims. Once any
// body returns false no further index is claimed; bodies already running
// finish. The caller runs no body itself: it waits, so a context's timer
// can fire even on one core.
//
// erlint:ignore CPU-bound fan-out that always joins before returning; callers cancel by returning false from a body
func Run(n int, worker func() func(i int) bool) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers < 1 {
		return
	}
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	loop := func() {
		body := worker()
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if !body(i) {
				stop.Store(true)
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		loop()
	}()
	slots := budget()
spawn:
	for w := 1; w < workers; w++ {
		select {
		case slots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-slots }()
				loop()
			}()
		default:
			break spawn
		}
	}
	wg.Wait()
}

// Each is Run for bodies that keep no per-worker scratch.
func Each(n int, body func(i int) bool) {
	Run(n, func() func(int) bool { return body })
}
