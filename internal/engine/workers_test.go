package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/unify"
	"entangled/internal/workload"
)

// TestWorkersOption: a positive Workers sizes the pool, anything else
// means GOMAXPROCS, which choosing it leaves as it was.
func TestWorkersOption(t *testing.T) {
	const procs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for _, c := range []struct{ opt, want int }{{1, 1}, {3, 3}, {0, procs}, {-2, procs}} {
		if got := New(db.NewInstance(), Options{Workers: c.opt}).Workers(); got != c.want {
			t.Errorf("Workers: %d gives %d workers, want %d", c.opt, got, c.want)
		}
		if got := runtime.GOMAXPROCS(0); got != procs {
			t.Fatalf("New changed GOMAXPROCS from %d to %d", procs, got)
		}
	}
}

// heldStore holds every store query until release closes, counting how
// many requests are inside it at once.
type heldStore struct {
	db.Store
	inside  atomic.Int32
	release chan struct{}
}

func (h *heldStore) hold() {
	h.inside.Add(1)
	<-h.release
}

func (h *heldStore) Solve(body []eq.Atom) (db.Binding, bool, error) {
	h.hold()
	return h.Store.Solve(body)
}
func (h *heldStore) SolveAll(body []eq.Atom, limit int) ([]db.Binding, error) {
	h.hold()
	return h.Store.SolveAll(body, limit)
}
func (h *heldStore) Satisfiable(body []eq.Atom) (bool, error) {
	h.hold()
	return h.Store.Satisfiable(body)
}
func (h *heldStore) SolveUnder(body []eq.Atom, s *unify.Subst) (db.Binding, bool, error) {
	h.hold()
	return h.Store.SolveUnder(body, s)
}

// TestCoordinateManyRunsWorkersAtOnce: a batch runs min(Workers, len)
// requests at once, no fewer and no more. Each request's first store
// query is held, so the count of requests inside the store is the count
// running.
func TestCoordinateManyRunsWorkersAtOnce(t *testing.T) {
	for _, c := range []struct{ workers, reqs, want int }{{2, 6, 2}, {4, 3, 3}} {
		st := &heldStore{Store: listInstance(t), release: make(chan struct{})}
		e := New(st, Options{Workers: c.workers})
		reqs := make([]Request, c.reqs)
		for i := range reqs {
			reqs[i] = Request{Queries: workload.ListQueries(4, testRows)}
		}
		done := make(chan []Response)
		go func() { done <- e.CoordinateMany(context.Background(), reqs) }()
		for deadline := time.Now().Add(5 * time.Second); st.inside.Load() < int32(c.want); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				close(st.release)
				t.Fatalf("workers=%d reqs=%d: %d requests running, want %d", c.workers, c.reqs, st.inside.Load(), c.want)
			}
		}
		time.Sleep(20 * time.Millisecond) // room for a worker too many to enter
		got := st.inside.Load()
		close(st.release)
		for i, r := range <-done {
			if r.Err != nil || r.Result == nil {
				t.Fatalf("request %d: %+v", i, r)
			}
		}
		if got != int32(c.want) {
			t.Fatalf("workers=%d reqs=%d: %d requests running at once, want %d", c.workers, c.reqs, got, c.want)
		}
	}
}

// TestRoutableRequestRunsOnItsShard: a request whose bodies pin one
// shard asks that shard alone, so its queries land on that shard's
// counter and no other lock is touched.
func TestRoutableRequestRunsOnItsShard(t *testing.T) {
	_, sh := exactMeteringStores()
	qs := workload.ListQueriesAt(4, 7)
	if _, ok := sh.Route(qs); !ok {
		t.Fatal("ListQueriesAt is not routable")
	}
	sh.ResetCounters()
	res, err := New(sh, Options{}).Coordinate(context.Background(), qs)
	if err != nil || res == nil {
		t.Fatal(res, err)
	}
	var on []int
	for i := range sh.NumShards() {
		if sh.Shard(i).QueriesIssued() > 0 {
			on = append(on, i)
		}
	}
	if len(on) != 1 || sh.Shard(on[0]).QueriesIssued() != res.DBQueries || sh.QueriesIssued() != res.DBQueries {
		t.Fatalf("queries on shards %v (%d in all), want %d on one shard", on, sh.QueriesIssued(), res.DBQueries)
	}
}
