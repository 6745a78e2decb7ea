package server

import (
	"context"
	"errors"
	"fmt"
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
	b := newBatcher(e, 64, 8, timeout, nil, nil, nil)
	t.Cleanup(b.close)
	return b
}

func memStore(rows int) *db.Instance {
	inst := db.NewInstance()
	workload.UserTable(inst, rows)
	return inst
}

// TestBatcherCanceledSubmitterDoesNotPoisonBatchmates: a submitter
// whose context is already dead gets ctx.Err back, but its request —
// admitted — still executes under the batcher's own dispatch context,
// and requests from other clients keep being served. One client
// hanging up must never fail a batchmate or wedge the dispatcher.
func TestBatcherCanceledSubmitterDoesNotPoisonBatchmates(t *testing.T) {
	b := testBatcher(t, memStore(40), 30*time.Second)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.submit(dead, "", engine.Request{ID: "gone", Queries: workload.ListQueries(4, 40)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submitter got %v, want context.Canceled", err)
	}
	// The dispatcher is still healthy: live submitters get real results.
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

// TestBatcherDispatchTimeout: a store slow enough to bust the dispatch
// deadline fails the requests with a typed deadline error instead of
// wedging the dispatcher goroutine — the next submit is still served.
func TestBatcherDispatchTimeout(t *testing.T) {
	// 2ms per store query versus a 1ms dispatch budget: the deadline
	// expires during the first queries of the plan.
	slow := workload.NewStore(1, 40, 2*time.Millisecond)
	b := testBatcher(t, slow, time.Millisecond)
	resp, err := b.submit(context.Background(), "", engine.Request{ID: "slow", Queries: workload.ListQueries(6, 40)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("resp.Err = %v, want context.DeadlineExceeded", resp.Err)
	}
	// The dispatcher survived and keeps serving (and timing out) work.
	resp, err = b.submit(context.Background(), "", engine.Request{ID: "again", Queries: workload.ListQueries(6, 40)})
	if err != nil || !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("second submit: %v / %v", err, resp.Err)
	}
}

// drrBatcher builds a batcher without its dispatcher goroutine, so the
// scheduler (popBatch) can be driven deterministically, and fills the
// given per-tenant backlogs.
func drrBatcher(maxBatch int, weights map[admission.Tenant]int, backlogs map[admission.Tenant]int) *batcher {
	b := &batcher{
		depth:    1 << 20,
		maxBatch: maxBatch,
		queues:   map[admission.Tenant]*tenantQueue{},
	}
	for ten, n := range backlogs {
		w := weights[ten]
		if w <= 0 {
			w = 1
		}
		q := &tenantQueue{tenant: ten, weight: w, active: true}
		for i := 0; i < n; i++ {
			q.items = append(q.items, batchItem{req: engine.Request{ID: fmt.Sprintf("%s-%d", ten, i)}})
		}
		b.queues[ten] = q
		b.active = append(b.active, q)
		b.total += n
	}
	return b
}

// counts tallies one popped batch by tenant and checks FIFO order
// within each tenant.
func counts(t *testing.T, items []batchItem) map[admission.Tenant]int {
	t.Helper()
	out := map[admission.Tenant]int{}
	last := map[admission.Tenant]int{}
	for _, it := range items {
		var ten admission.Tenant
		var i int
		if _, err := fmt.Sscanf(it.req.ID, "%s-%d", &ten, &i); err != nil {
			// Sscanf cannot split on '-' inside %s; parse manually.
			for j := len(it.req.ID) - 1; j >= 0; j-- {
				if it.req.ID[j] == '-' {
					ten = admission.Tenant(it.req.ID[:j])
					fmt.Sscanf(it.req.ID[j+1:], "%d", &i)
					break
				}
			}
		}
		if prev, seen := last[ten]; seen && i <= prev {
			t.Fatalf("tenant %s dispatched out of FIFO order: %d after %d", ten, i, prev)
		}
		last[ten] = i
		out[ten]++
	}
	return out
}

// TestBatcherDRREqualWeights: two tenants with equal weight and deep
// backlogs split every contended batch evenly, FIFO within each.
func TestBatcherDRREqualWeights(t *testing.T) {
	b := drrBatcher(10, nil, map[admission.Tenant]int{"a": 100, "b": 100})
	for round := 0; round < 5; round++ {
		items, _ := b.popBatch()
		if len(items) != 10 {
			t.Fatalf("round %d: batch of %d, want 10", round, len(items))
		}
		got := counts(t, items)
		if got["a"] != 5 || got["b"] != 5 {
			t.Fatalf("round %d: split %v, want 5/5", round, got)
		}
	}
}

// TestBatcherDRRWeightedShares: a weight-4 tenant receives 4x the
// batch share of a weight-1 tenant while both have backlog.
func TestBatcherDRRWeightedShares(t *testing.T) {
	b := drrBatcher(10, map[admission.Tenant]int{"vip": 4, "std": 1},
		map[admission.Tenant]int{"vip": 100, "std": 100})
	total := map[admission.Tenant]int{}
	for round := 0; round < 5; round++ {
		items, _ := b.popBatch()
		if len(items) != 10 {
			t.Fatalf("round %d: batch of %d, want 10", round, len(items))
		}
		for ten, n := range counts(t, items) {
			total[ten] += n
		}
	}
	if total["vip"] != 40 || total["std"] != 10 {
		t.Fatalf("50 dispatched as %v, want vip=40 std=10", total)
	}
}

// TestBatcherDRRDeepBacklogCannotStarve: a tenant with a single queued
// request makes it into the very next batch even though another tenant
// holds a backlog far deeper than the batch size.
func TestBatcherDRRDeepBacklogCannotStarve(t *testing.T) {
	b := drrBatcher(8, nil, map[admission.Tenant]int{"hot": 1000, "quiet": 1})
	items, _ := b.popBatch()
	if len(items) != 8 {
		t.Fatalf("batch of %d, want 8", len(items))
	}
	got := counts(t, items)
	if got["quiet"] != 1 {
		t.Fatalf("quiet tenant's request missed the first dispatch: %v", got)
	}
	// The drained quiet queue left the ring; the hot tenant now owns
	// whole batches.
	items, _ = b.popBatch()
	if got := counts(t, items); got["hot"] != 8 {
		t.Fatalf("second batch %v, want hot=8", got)
	}
}

// TestBatcherDRRSingleTenantIsFIFO: with one queue (admission off
// routes everything to the anonymous tenant) the schedule is the plain
// FIFO the batcher replaced.
func TestBatcherDRRSingleTenantIsFIFO(t *testing.T) {
	b := drrBatcher(4, nil, map[admission.Tenant]int{"": 10})
	var seen []string
	for {
		items, _ := b.popBatch()
		if len(items) == 0 {
			break
		}
		for _, it := range items {
			seen = append(seen, it.req.ID)
		}
	}
	if len(seen) != 10 {
		t.Fatalf("dispatched %d items, want 10", len(seen))
	}
	for i, id := range seen {
		if want := fmt.Sprintf("-%d", i); id != want {
			t.Fatalf("position %d dispatched %q, want %q", i, id, want)
		}
	}
}

// TestBatcherPerTenantBound: one tenant filling its queue to the bound
// is rejected with api.ErrOverloaded while another tenant still has its
// full queue space.
func TestBatcherPerTenantBound(t *testing.T) {
	b := &batcher{
		depth:    2,
		maxBatch: 8,
		queues:   map[admission.Tenant]*tenantQueue{},
		notify:   make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	// No dispatcher: the backlog stays queued. Submitters use a dead
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
	if d := b.queueDepth("hog"); d != 2 {
		t.Fatalf("hog depth = %d, want 2", d)
	}
}
