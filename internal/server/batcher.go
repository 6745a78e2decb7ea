package server

import (
	"context"
	"sync"
	"time"

	"entangled/internal/admission"
	"entangled/internal/api"
	"entangled/internal/engine"
)

// batchItem is one admitted coordination request waiting for dispatch.
type batchItem struct {
	req   engine.Request
	reply chan engine.Response // buffered(1): dispatch never blocks on it
}

// tenantQueue is one tenant's FIFO backlog plus its deficit round-robin
// bookkeeping. Guarded by the batcher mutex.
type tenantQueue struct {
	tenant admission.Tenant
	items  []batchItem
	head   int // items[:head] are already dispatched (kept to amortize shifts)
	// deficit is the DRR counter: each scheduler visit credits weight
	// items, and each dispatched item debits one, so over time a
	// tenant's share of every contended batch converges to
	// weight/Σweights regardless of how fast it submits.
	deficit int
	weight  int
	active  bool // on the scheduler's active ring
}

func (q *tenantQueue) depth() int { return len(q.items) - q.head }

// batcher turns many concurrent requests into few CoordinateMany calls:
// admitted requests queue per tenant, and one dispatcher goroutine
// drains the backlog — up to maxBatch per dispatch — into single engine
// calls. Under light load a request dispatches alone with no added
// latency; under heavy load batches form naturally and the engine's
// worker pool serves them concurrently.
//
// Batches are formed by deficit round-robin over the tenants with
// backlog: each pass over the active ring credits every queue its
// weight and drains up to its deficit, so a hot tenant with a deep
// backlog cannot crowd a quiet tenant's single request out of the next
// dispatch — coalescing (many tenants in one engine call) is preserved,
// ordering within a tenant is FIFO, and with one tenant (a server
// without admission routes everything to the "" tenant) the schedule
// degenerates to the plain FIFO it replaced. Each per-tenant queue is
// bounded: a full queue rejects that tenant's request with
// api.ErrOverloaded (wire code "overloaded") instead of building an
// unbounded backlog, and the bound is per tenant, so one tenant's
// flood cannot consume another's queue space.
type batcher struct {
	e          *engine.Engine
	depth      int // per-tenant queue bound
	maxBatch   int
	timeout    time.Duration       // per-dispatch deadline; <=0 means none
	onDispatch func(batchSize int) // observes every CoordinateMany dispatch
	// weight maps a tenant to its DRR weight (>=1); nil means every
	// tenant weighs 1.
	weight func(admission.Tenant) int
	// onShare observes, per dispatch, how many of the batch's items each
	// contributing tenant supplied; nil skips the accounting.
	onShare func(t admission.Tenant, n, batchSize int)

	mu     sync.Mutex
	queues map[admission.Tenant]*tenantQueue
	active []*tenantQueue // ring of queues with backlog
	next   int            // ring cursor
	total  int            // items queued across all tenants

	notify   chan struct{} // cap 1: "backlog is non-empty" edge signal
	stop     chan struct{} // closed by close(): reject new, drain queued
	done     chan struct{} // closed when the dispatcher exits
	stopOnce sync.Once
}

func newBatcher(e *engine.Engine, queueDepth, maxBatch int, timeout time.Duration,
	onDispatch func(int), weight func(admission.Tenant) int, onShare func(admission.Tenant, int, int)) *batcher {
	b := &batcher{
		e:          e,
		depth:      queueDepth,
		maxBatch:   maxBatch,
		timeout:    timeout,
		onDispatch: onDispatch,
		weight:     weight,
		onShare:    onShare,
		queues:     map[admission.Tenant]*tenantQueue{},
		notify:     make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	go b.loop()
	return b
}

// submit admits one request under a tenant and waits for its response.
// Admission is non-blocking: a full tenant queue or a draining server
// rejects immediately. Cancelling ctx abandons the wait; the request
// still executes (it was admitted) but the response is dropped.
func (b *batcher) submit(ctx context.Context, tenant admission.Tenant, req engine.Request) (engine.Response, error) {
	it := batchItem{req: req, reply: make(chan engine.Response, 1)}
	select {
	case <-b.stop:
		return engine.Response{}, api.ErrDraining
	default:
	}
	b.mu.Lock()
	q := b.queues[tenant]
	if q == nil {
		w := 1
		if b.weight != nil {
			if got := b.weight(tenant); got > 0 {
				w = got
			}
		}
		q = &tenantQueue{tenant: tenant, weight: w}
		b.queues[tenant] = q
	}
	if q.depth() >= b.depth {
		b.mu.Unlock()
		return engine.Response{}, api.ErrOverloaded
	}
	q.items = append(q.items, it)
	if !q.active {
		q.active = true
		b.active = append(b.active, q)
	}
	b.total++
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
	select {
	case resp := <-it.reply:
		return resp, nil
	case <-b.done:
		// done and reply can become ready together (the drain served
		// this item just before exiting); a served request must never
		// report api.ErrDraining, so re-check the reply first.
		select {
		case resp := <-it.reply:
			return resp, nil
		default:
		}
		// Drain raced the enqueue: the dispatcher exited without seeing
		// this item.
		return engine.Response{}, api.ErrDraining
	case <-ctx.Done():
		return engine.Response{}, ctx.Err()
	}
}

// queueDepth reports the queued backlog for one tenant (0 when it has
// never submitted).
func (b *batcher) queueDepth(t admission.Tenant) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if q := b.queues[t]; q != nil {
		return q.depth()
	}
	return 0
}

// loop is the dispatcher: wait for backlog, then form DRR batches until
// the backlog is empty again. On stop it drains everything admitted
// before the drain, then exits.
func (b *batcher) loop() {
	defer close(b.done)
	for {
		select {
		case <-b.notify:
			b.drain()
		case <-b.stop:
			b.drain()
			return
		}
	}
}

// drain dispatches batches until no backlog remains.
func (b *batcher) drain() {
	for {
		items, shares := b.popBatch()
		if len(items) == 0 {
			return
		}
		b.dispatch(items, shares)
	}
}

// tenantShare is one tenant's contribution to a dispatched batch.
type tenantShare struct {
	tenant admission.Tenant
	n      int
}

// popBatch forms one batch by deficit round-robin over the active ring:
// each visited queue is credited its weight and drained while it holds
// both deficit and backlog. A queue drained empty leaves the ring (its
// deficit resets — credit does not accrue while idle); a queue stopped
// by its deficit keeps the remainder for its next visit. Weights are
// >=1, so every visited queue yields at least one item and the loop
// always progresses toward either a full batch or an empty ring.
func (b *batcher) popBatch() ([]batchItem, []tenantShare) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.total == 0 {
		return nil, nil
	}
	items := make([]batchItem, 0, min(b.total, b.maxBatch))
	var shares []tenantShare
	for len(items) < b.maxBatch && b.total > 0 {
		if b.next >= len(b.active) {
			b.next = 0
		}
		q := b.active[b.next]
		q.deficit += q.weight
		took := 0
		for q.deficit > 0 && q.depth() > 0 && len(items) < b.maxBatch {
			items = append(items, q.items[q.head])
			q.items[q.head] = batchItem{} // release refs to dispatched work
			q.head++
			q.deficit--
			b.total--
			took++
		}
		if took > 0 && b.onShare != nil {
			shares = append(shares, tenantShare{tenant: q.tenant, n: took})
		}
		if q.depth() == 0 {
			q.items = q.items[:0]
			q.head = 0
			q.deficit = 0
			q.active = false
			b.active = append(b.active[:b.next], b.active[b.next+1:]...)
			// next now points at the following queue; don't advance.
		} else {
			b.next++
		}
	}
	return items, shares
}

// dispatch serves one formed batch in a single engine call.
func (b *batcher) dispatch(items []batchItem, shares []tenantShare) {
	if b.onDispatch != nil {
		b.onDispatch(len(items))
	}
	if b.onShare != nil {
		for _, sh := range shares {
			b.onShare(sh.tenant, sh.n, len(items))
		}
	}
	reqs := make([]engine.Request, len(items))
	for i, it := range items {
		reqs[i] = it.req
	}
	// The dispatch deadline is what keeps a stalled store (or injected
	// fault) from wedging the single dispatcher goroutine forever: past
	// it, the engine's context-wrapped store fails each remaining query
	// with DeadlineExceeded and the batch returns. It bounds the work
	// between store calls — one store call already in flight must still
	// return on its own.
	ctx := context.Background()
	if b.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b.timeout)
		defer cancel()
	}
	for i, resp := range b.e.CoordinateMany(ctx, reqs) {
		items[i].reply <- resp
	}
}

// close stops admission and waits for the dispatcher to drain the
// queued work.
func (b *batcher) close() {
	b.stopOnce.Do(func() { close(b.stop) })
	<-b.done
}
