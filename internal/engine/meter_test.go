package engine

import (
	"context"
	"fmt"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

// exactMeteringStores builds one plain and one 8-shard store with
// identical contents for the metering tests.
func exactMeteringStores() (*db.Instance, *db.ShardedInstance) {
	inst := db.NewInstance()
	workload.UserTable(inst, testRows)
	sh := db.NewShardedInstance(8)
	workload.UserTableSharded(sh, testRows)
	return inst, sh
}

// TestCoordinateManyExactMetering is the paper's cost-metric guarantee
// under serving load: N concurrent identical requests over one shared
// store must each report exactly the DBQueries a solo run reports —
// concurrent traffic must never leak into another request's count. Run
// with -race this also exercises the per-request meters under the
// engine's full concurrency.
func TestCoordinateManyExactMetering(t *testing.T) {
	inst, sh := exactMeteringStores()
	for name, store := range map[string]db.Store{"instance": inst, "sharded8": sh} {
		t.Run(name, func(t *testing.T) {
			e := New(store, Options{Workers: 8})
			qs := workload.ListQueries(20, testRows)

			solo := e.CoordinateMany(context.Background(), []Request{{ID: "solo", Queries: qs}})
			if solo[0].Err != nil {
				t.Fatal(solo[0].Err)
			}
			want := solo[0].Result.DBQueries
			if want == 0 {
				t.Fatal("solo run reported zero queries; the workload should issue some")
			}

			const n = 32
			reqs := make([]Request, n)
			for i := range reqs {
				reqs[i] = Request{ID: fmt.Sprintf("req%d", i), Queries: qs}
			}
			store.ResetCounters()
			for i, resp := range e.CoordinateMany(context.Background(), reqs) {
				if resp.Err != nil {
					t.Fatalf("request %d: %v", i, resp.Err)
				}
				if resp.Result.DBQueries != want {
					t.Fatalf("request %d: DBQueries %d, want the solo count %d", i, resp.Result.DBQueries, want)
				}
			}
			// The aggregate still totals the whole batch.
			if got := store.QueriesIssued(); got != int64(n)*want {
				t.Fatalf("aggregate %d, want %d requests x %d", got, n, want)
			}
		})
	}
}

// TestEngineShardedWithConcurrentWriters serves a sharded batch while
// writers keep inserting into the same sharded relation — the
// contention shape the sharding exists for; with -race this checks the
// lock discipline end to end. eq import keeps the writer tuples typed.
func TestEngineShardedWithConcurrentWriters(t *testing.T) {
	_, sh := exactMeteringStores()
	rel := sh.CreateRelation("Side", 0, "a", "b")
	e := New(sh, Options{Workers: 4})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rel.Insert(eq.Value(fmt.Sprintf("k%d", i)), eq.Value("v"))
		}
	}()
	reqs := make([]Request, 32)
	for i := range reqs {
		reqs[i] = Request{Queries: workload.ListQueries(10, testRows)}
	}
	out := e.CoordinateMany(context.Background(), reqs)
	close(stop)
	<-done
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.Result.Size() != 10 {
			t.Fatalf("request %d: set size %d, want 10", i, r.Result.Size())
		}
	}
}
