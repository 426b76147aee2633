package httpapi

// gate.go: query admission control. Under overload the server sheds
// early and cheaply — a 429 with Retry-After before any compile or
// evaluation work — instead of queueing unboundedly and timing every
// request out. Two independent limiters:
//
//   - gate bounds in-flight queries (POST /query and /explain): a
//     semaphore of execution slots plus a wait queue twice as deep
//     (NewHandler derives it; tests build other shapes). A query
//     that cannot get a slot reserves a queue place and blocks until a
//     slot frees or its context expires; when the queue is full too,
//     the request is shed immediately.
//   - byteGate bounds the bytes of bulk-ingest bodies in flight, by
//     Content-Length, so concurrent large uploads cannot multiply the
//     per-request DefaultMaxBody bound into an OOM.
//
// Both are nil/zero-disabled: the default configuration admits
// everything, matching the pre-gate behaviour.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// errShed is returned by gate.acquire when both the execution slots
// and the wait queue are full; the handler maps it to 429.
var errShed = errors.New("httpapi: too many concurrent queries")

// errBulkShed is byteGate's analogue for bulk uploads.
var errBulkShed = errors.New("httpapi: too many bulk-upload bytes in flight")

// gate is a two-stage admission semaphore: slots bound execution,
// queue bounds waiting. Channel-based so waiting composes with
// context cancellation.
type gate struct {
	slots chan struct{}
	queue chan struct{}
	sheds atomic.Uint64 // requests rejected with errShed
	waits atomic.Uint64 // requests that had to queue before running
}

// newGate returns a gate admitting slots concurrent queries with up
// to queue waiters, or nil (no gating) when slots <= 0.
func newGate(slots, queue int) *gate {
	if slots <= 0 {
		return nil
	}
	return &gate{
		slots: make(chan struct{}, slots),
		queue: make(chan struct{}, queue),
	}
}

// acquire reserves an execution slot, blocking in the bounded queue
// when none is free. It returns the release function, errShed when
// the queue is full (shed the request now), or ctx.Err() when the
// context expired while queued. A nil gate admits everything.
func (g *gate) acquire(ctx context.Context) (func(), error) {
	if g == nil {
		return func() {}, nil
	}
	select {
	case g.slots <- struct{}{}:
		return func() { <-g.slots }, nil
	default:
	}
	select {
	case g.queue <- struct{}{}:
	default:
		g.sheds.Add(1)
		return nil, errShed
	}
	g.waits.Add(1)
	defer func() { <-g.queue }()
	select {
	case g.slots <- struct{}{}:
		return func() { <-g.slots }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// byteGate bounds the total request-body bytes admitted concurrently.
type byteGate struct {
	mu    sync.Mutex
	max   int64
	cur   int64
	sheds atomic.Uint64
}

// newByteGate returns a byteGate admitting max in-flight bytes, or
// nil (no gating) when max <= 0.
func newByteGate(max int64) *byteGate {
	if max <= 0 {
		return nil
	}
	return &byteGate{max: max}
}

// acquire admits n bytes, returning the release function or
// errBulkShed. A request larger than the whole budget is still
// admitted when the gate is idle — maxBody bounds it individually —
// so a generous single upload cannot deadlock against a tight gate.
// A nil gate admits everything.
func (b *byteGate) acquire(n int64) (func(), error) {
	if b == nil {
		return func() {}, nil
	}
	b.mu.Lock()
	if b.cur > 0 && b.cur+n > b.max {
		b.mu.Unlock()
		b.sheds.Add(1)
		return nil, errBulkShed
	}
	b.cur += n
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		b.cur -= n
		b.mu.Unlock()
	}, nil
}
