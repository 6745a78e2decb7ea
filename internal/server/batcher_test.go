package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"entangled/internal/admission"
	"entangled/internal/api"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/workload"
)

func testBatcher(t *testing.T, store db.Store, timeout time.Duration) *batcher {
	t.Helper()
	e := engine.New(store, engine.Options{Workers: 2})
	b := newBatcher(e, nil, nil)
	b.timeout = timeout // before any submit, whose lock orders it before the workers' reads
	t.Cleanup(b.close)
	return b
}

func memStore(rows int) *db.Instance {
	inst := db.NewInstance()
	workload.UserTable(inst, rows)
	return inst
}

// TestBatcherCanceledSubmitterDoesNotPoisonBatchmates: a submitter
// whose context is already dead gets ctx.Err back, its request is
// dropped by the worker that takes it, and requests from other clients
// keep being served. One client hanging up must never fail another
// request or wedge a worker.
func TestBatcherCanceledSubmitterDoesNotPoisonBatchmates(t *testing.T) {
	b := testBatcher(t, memStore(40), 30*time.Second)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.submit(dead, "", engine.Request{ID: "gone", Queries: workload.ListQueries(4, 40)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submitter got %v, want context.Canceled", err)
	}
	// The workers are still healthy: live submitters get real results.
	for i := 0; i < 3; i++ {
		resp, err := b.submit(context.Background(), "", engine.Request{ID: "live", Queries: workload.ListQueries(4, 40)})
		if err != nil || resp.Err != nil {
			t.Fatalf("batchmate %d after a canceled submitter: submit=%v resp=%v", i, err, resp.Err)
		}
		if resp.Result == nil || resp.Result.Size() == 0 {
			t.Fatalf("batchmate %d: empty result %+v", i, resp.Result)
		}
	}
}

// TestBatcherAbandonedRequestNeverRuns: requests whose submitters are
// gone before a worker takes them issue no store query — they would be
// billed to nobody — even though close drains every admitted item.
func TestBatcherAbandonedRequestNeverRuns(t *testing.T) {
	store := memStore(40)
	b := testBatcher(t, store, 30*time.Second)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	before := store.QueriesIssued()
	for i := range 10 {
		if _, err := b.submit(dead, "", engine.Request{ID: strconv.Itoa(i), Queries: workload.ListQueries(4, 40)}); !errors.Is(err, context.Canceled) {
			t.Fatalf("submit %d: %v, want context.Canceled", i, err)
		}
	}
	b.close()
	if n := store.QueriesIssued() - before; n != 0 {
		t.Fatalf("abandoned requests issued %d store queries, want 0", n)
	}
}

// TestBatcherDispatchTimeout: a store slow enough to bust the
// per-request deadline fails the request with a typed deadline error
// instead of wedging a worker — the next submit is still served.
func TestBatcherDispatchTimeout(t *testing.T) {
	// 2ms per store query versus a 1ms request budget: the deadline
	// expires during the first queries of the plan, one of six.
	slow := workload.NewStore(1, 40, 2*time.Millisecond)
	b := testBatcher(t, slow, time.Millisecond)
	resp, err := b.submit(context.Background(), "", engine.Request{ID: "slow", Queries: workload.JoinedDeadEnd(workload.ListQueries(6, 40))})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("resp.Err = %v, want context.DeadlineExceeded", resp.Err)
	}
	// The workers survived and keep serving (and timing out) work.
	resp, err = b.submit(context.Background(), "", engine.Request{ID: "again", Queries: workload.JoinedDeadEnd(workload.ListQueries(6, 40))})
	if err != nil || !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("second submit: %v / %v", err, resp.Err)
	}
}

// drrBatcher builds a batcher without workers, so the scheduler (take)
// can be driven deterministically, and fills the given per-tenant
// backlogs.
func drrBatcher(weights map[admission.Tenant]int, backlogs map[admission.Tenant]int) *batcher {
	b := &batcher{depth: 1 << 20, queues: map[admission.Tenant]*tenantQueue{}}
	for ten, n := range backlogs {
		w := weights[ten]
		if w <= 0 {
			w = 1
		}
		q := &tenantQueue{weight: w}
		for i := 0; i < n; i++ {
			q.push(batchItem{req: engine.Request{ID: fmt.Sprintf("%s-%d", ten, i)}}, b.depth)
		}
		b.queues[ten] = q
		b.active = append(b.active, q)
	}
	return b
}

// takeN takes n items, tallies them by tenant and checks FIFO order
// within each tenant.
func takeN(t *testing.T, b *batcher, n int) map[admission.Tenant]int {
	t.Helper()
	out := map[admission.Tenant]int{}
	for range n {
		it, ok := b.take()
		if !ok {
			t.Fatal("take on a closed batcher")
		}
		j := strings.LastIndexByte(it.req.ID, '-')
		ten := admission.Tenant(it.req.ID[:j])
		i, _ := strconv.Atoi(it.req.ID[j+1:])
		if want := b.queues[ten].dispatched - 1; int64(i) != want {
			t.Fatalf("tenant %s taken out of FIFO order: %d, want %d", ten, i, want)
		}
		out[ten]++
	}
	return out
}

// TestBatcherDRREqualWeights: two tenants with equal weight and deep
// backlogs split every 10 takes evenly, FIFO within each.
func TestBatcherDRREqualWeights(t *testing.T) {
	b := drrBatcher(nil, map[admission.Tenant]int{"a": 100, "b": 100})
	for round := 0; round < 5; round++ {
		if got := takeN(t, b, 10); got["a"] != 5 || got["b"] != 5 {
			t.Fatalf("round %d: split %v, want 5/5", round, got)
		}
	}
}

// TestBatcherDRRWeightedShares: a weight-4 tenant receives 4x the takes
// of a weight-1 tenant while both have backlog.
func TestBatcherDRRWeightedShares(t *testing.T) {
	b := drrBatcher(map[admission.Tenant]int{"vip": 4, "std": 1},
		map[admission.Tenant]int{"vip": 100, "std": 100})
	if total := takeN(t, b, 50); total["vip"] != 40 || total["std"] != 10 {
		t.Fatalf("50 takes went %v, want vip=40 std=10", total)
	}
}

// TestBatcherDRRDeepBacklogCannotStarve: a tenant with a single queued
// request is among the first two takes even though another tenant
// holds a 1,000-deep backlog.
func TestBatcherDRRDeepBacklogCannotStarve(t *testing.T) {
	b := drrBatcher(nil, map[admission.Tenant]int{"hot": 1000, "quiet": 1})
	if got := takeN(t, b, 2); got["quiet"] != 1 {
		t.Fatalf("quiet tenant's request missed the first two takes: %v", got)
	}
	// The drained quiet queue left the ring; the hot tenant now owns
	// every take.
	if got := takeN(t, b, 8); got["hot"] != 8 {
		t.Fatalf("next eight takes %v, want hot=8", got)
	}
}

// TestBatcherDRRSingleTenantIsFIFO: with one queue (admission off
// routes everything to the anonymous tenant) the schedule is a plain
// FIFO.
func TestBatcherDRRSingleTenantIsFIFO(t *testing.T) {
	b := drrBatcher(nil, map[admission.Tenant]int{"": 10})
	if got := takeN(t, b, 10); got[""] != 10 || b.queues[""].n != 0 {
		t.Fatalf("took %v, %d left; want all 10 in order", got, b.queues[""].n)
	}
}

// TestBatcherQueueStaysBounded: a backlog that never empties cycles
// through its queue without growing it; the ring stays within twice
// the queue bound however many items pass through.
func TestBatcherQueueStaysBounded(t *testing.T) {
	const depth = 16
	b := &batcher{depth: depth, queues: map[admission.Tenant]*tenantQueue{}}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	submit := func() {
		if _, err := b.submit(dead, "t", engine.Request{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("submit: %v", err)
		}
	}
	for range 4 {
		submit()
	}
	for range 100_000 {
		for range 4 {
			submit()
		}
		for range 4 {
			b.take()
		}
	}
	q := b.queues["t"]
	if q.n != 4 || cap(q.items) > 2*depth {
		t.Fatalf("backlog %d in a ring of cap %d, want 4 within cap %d", q.n, cap(q.items), 2*depth)
	}
}

// TestBatcherPerTenantBound: one tenant filling its queue to the bound
// is rejected with api.ErrOverloaded while another tenant still has its
// full queue space.
func TestBatcherPerTenantBound(t *testing.T) {
	b := &batcher{depth: 2, queues: map[admission.Tenant]*tenantQueue{}}
	// No workers: the backlog stays queued. Submitters use a dead
	// context so the enqueue happens but the wait returns immediately.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 2; i++ {
		if _, err := b.submit(dead, "hog", engine.Request{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := b.submit(dead, "hog", engine.Request{}); !errors.Is(err, api.ErrOverloaded) {
		t.Fatalf("over-bound submit: %v, want api.ErrOverloaded", err)
	}
	if _, err := b.submit(dead, "other", engine.Request{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("other tenant rejected by hog's full queue: %v", err)
	}
	if d, _ := b.tenant("hog"); d != 2 {
		t.Fatalf("hog depth = %d, want 2", d)
	}
}
