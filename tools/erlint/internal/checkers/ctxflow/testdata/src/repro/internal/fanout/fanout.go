// Package fanout exercises the blocking-send rules ctxflow applies inside
// internal/fanout: a send must be escapable through ctx.Done() or a
// default clause.
package fanout

import "context"

func bareSend(ctx context.Context, ch chan int) {
	ch <- 1 // want `blocking channel send outside select`
}

func guardedSend(ctx context.Context, ch chan int) {
	select {
	case ch <- 1:
	case <-ctx.Done():
	}
}

func defaultSend(ch chan int) {
	select {
	case ch <- 1:
	default:
	}
}

func unguardedSelectSend(ctx context.Context, ch, other chan int) {
	select {
	case ch <- 1: // want `channel send in a select with no ctx\.Done\(\) case and no default`
	case <-other:
	}
}
