package server

import (
	"context"
	"slices"
	"sync"
	"time"

	"entangled/internal/admission"
	"entangled/internal/api"
	"entangled/internal/engine"
)

// batchItem is one admitted coordination request waiting for a worker.
type batchItem struct {
	// ctx is the submitter's: an item taken after it ended issues no
	// store query, and one running stops when it ends (see work).
	ctx   context.Context
	req   engine.Request
	reply chan engine.Response // buffered(1): a worker never blocks on it
}

// tenantQueue is one tenant's FIFO backlog plus its deficit round-robin
// bookkeeping. Guarded by the batcher mutex.
type tenantQueue struct {
	// items is a ring holding the backlog at items[head:head+n] (mod
	// len); it grows by doubling up to the queue bound and never past
	// it, however long the backlog stays non-empty.
	items []batchItem
	head  int
	n     int
	// deficit is the DRR counter: a visit that finds it at zero credits
	// weight, and each take debits one, so over time a tenant's share
	// of the takes converges to weight/Σweights regardless of how fast
	// it submits.
	deficit    int
	weight     int
	dispatched int64 // requests handed to a worker
}

// push appends it to the backlog; the caller has checked n < bound.
func (q *tenantQueue) push(it batchItem, bound int) {
	if q.n == len(q.items) {
		grown := make([]batchItem, min(max(2*q.n, 8), bound))
		copy(grown, q.items[q.head:])
		copy(grown[len(q.items)-q.head:], q.items[:q.head])
		q.items, q.head = grown, 0
	}
	q.items[(q.head+q.n)%len(q.items)] = it
	q.n++
}

// pop removes the oldest item.
func (q *tenantQueue) pop() batchItem {
	it := q.items[q.head]
	q.items[q.head] = batchItem{} // release refs to dispatched work
	q.head = (q.head + 1) % len(q.items)
	q.n--
	return it
}

// batcher is the batch path's worker pool: admitted requests queue per
// tenant, and Engine.Workers() long-lived workers each take the next
// request and run it through Engine.Coordinate. A request is one run of
// the §4 walk on its own meter and shares nothing with another but the
// store, so nothing is coalesced: a request waits only for a free
// worker, never for a batchmate.
//
// Workers take by deficit round-robin over the tenants with backlog: a
// visit that finds a queue's deficit at zero credits the queue its
// weight, and the cursor stays on the queue while it holds both deficit
// and backlog, so a hot tenant with a deep backlog cannot crowd a quiet
// tenant's single request out of the next takes. Ordering within a
// tenant is FIFO, and with one tenant (a server without admission
// routes everything to the "" tenant) the schedule is a plain FIFO.
// Each per-tenant queue is bounded: a full queue rejects that tenant's
// request with api.ErrOverloaded (wire code "overloaded") instead of
// building an unbounded backlog, and the bound is per tenant, so one
// tenant's flood cannot consume another's queue space.
type batcher struct {
	e          *engine.Engine
	depth      int           // per-tenant queue bound: queueDepth
	timeout    time.Duration // per-request deadline: dispatchTimeout
	onDispatch func()        // observes every request handed to a worker
	// weight maps a tenant to its DRR weight (>=1); nil means every
	// tenant weighs 1.
	weight func(admission.Tenant) int

	mu     sync.Mutex
	ready  sync.Cond // on mu: backlog arrived, or close began
	queues map[admission.Tenant]*tenantQueue
	active []*tenantQueue // ring of exactly the queues with backlog
	next   int            // ring cursor
	closed bool           // close began: reject new, drain queued

	workers sync.WaitGroup
}

func newBatcher(e *engine.Engine, onDispatch func(), weight func(admission.Tenant) int) *batcher {
	b := &batcher{
		e:          e,
		depth:      queueDepth,
		timeout:    dispatchTimeout,
		onDispatch: onDispatch,
		weight:     weight,
		queues:     map[admission.Tenant]*tenantQueue{},
	}
	b.ready.L = &b.mu
	for range e.Workers() {
		b.workers.Add(1)
		go b.work()
	}
	return b
}

// submit admits one request under a tenant and waits for its response.
// Admission is non-blocking: a full tenant queue or a draining server
// rejects immediately. Cancelling ctx abandons the wait and returns
// ctx's error, and a request still queued then never runs.
func (b *batcher) submit(ctx context.Context, tenant admission.Tenant, req engine.Request) (engine.Response, error) {
	it := batchItem{ctx: ctx, req: req, reply: make(chan engine.Response, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return engine.Response{}, api.ErrDraining
	}
	q := b.queues[tenant]
	if q == nil {
		w := 1
		if b.weight != nil {
			if got := b.weight(tenant); got > 0 {
				w = got
			}
		}
		q = &tenantQueue{weight: w}
		b.queues[tenant] = q
	}
	if q.n >= b.depth {
		b.mu.Unlock()
		return engine.Response{}, api.ErrOverloaded
	}
	if q.n == 0 {
		b.active = append(b.active, q)
	}
	q.push(it, b.depth)
	b.mu.Unlock()
	b.ready.Signal()
	// Workers drain every admitted item before close returns, so an
	// admitted request whose submitter still waits is always answered.
	select {
	case resp := <-it.reply:
		return resp, nil
	case <-ctx.Done():
		return engine.Response{}, ctx.Err()
	}
}

// tenant reports one tenant's queued backlog and the requests it has
// had handed to a worker (zeros when it has never submitted).
func (b *batcher) tenant(t admission.Tenant) (depth int, dispatched int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if q := b.queues[t]; q != nil {
		return q.n, q.dispatched
	}
	return 0, 0
}

// take waits for backlog and pops one item by deficit round-robin over
// the active ring. A queue drained empty leaves the ring (its deficit
// resets — credit does not accrue while idle); a queue whose deficit
// runs out keeps its backlog for its next visit. ok is false once the
// batcher is closed and its backlog drained.
func (b *batcher) take() (it batchItem, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.active) == 0 {
		if b.closed {
			return batchItem{}, false
		}
		b.ready.Wait()
	}
	if b.next >= len(b.active) {
		b.next = 0
	}
	q := b.active[b.next]
	if q.deficit == 0 {
		q.deficit = q.weight
	}
	it = q.pop()
	q.deficit--
	q.dispatched++
	switch {
	case q.n == 0:
		q.deficit = 0
		b.active = slices.Delete(b.active, b.next, b.next+1)
		// next now points at the following queue; don't advance.
	case q.deficit == 0:
		b.next++
	}
	return it, true
}

// work is one worker: take the next request, serve it, reply; until
// close has drained the backlog. A request whose submitter has gone
// spends no store query that nobody would be billed for: the engine
// refuses an ended context before its first. One whose submitter goes
// while it runs stops at its next store query (serve).
func (b *batcher) work() {
	defer b.workers.Done()
	for {
		it, ok := b.take()
		if !ok {
			return
		}
		if b.onDispatch != nil {
			b.onDispatch()
		}
		it.reply <- b.serve(it.ctx, it.req)
	}
}

// serve runs one request under its submitter's context and the
// per-request deadline, whichever ends first: a caller that leaves — an
// HTTP client that cancels, a binary connection that closes — stops the
// work it asked for, and the deadline keeps a stalled store (or
// injected fault) from holding a worker forever. Once either ends, the
// engine's context-wrapped store fails each remaining query and the
// request returns. It bounds the work between store calls — one store
// call already in flight must still return on its own.
func (b *batcher) serve(ctx context.Context, req engine.Request) engine.Response {
	ctx, cancel := context.WithTimeout(ctx, b.timeout)
	defer cancel()
	res, err := b.e.Coordinate(ctx, req.Queries)
	return engine.Response{ID: req.ID, Result: res, Err: err}
}

// close stops admission and waits for the workers to drain the queued
// work. Safe to call more than once.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.ready.Broadcast()
	b.workers.Wait()
}
