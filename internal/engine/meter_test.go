package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"entangled/internal/coord"
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

// TestCoordinateManyRoutedMatchesUnrouted checks that a routable
// request batch (every body pins the same shard) returns exactly the
// same sets and counts through the sharded fast path as through a
// plain instance.
func TestCoordinateManyRoutedMatchesUnrouted(t *testing.T) {
	inst, sh := exactMeteringStores()
	// rows=1 makes every body T(x, c0): all requests pin c0's shard.
	mkReqs := func() []Request {
		reqs := make([]Request, 16)
		for i := range reqs {
			reqs[i] = Request{ID: fmt.Sprintf("r%d", i), Queries: workload.ListQueries(5+i%10, 1)}
		}
		return reqs
	}
	if _, ok := sh.Route(mkReqs()[0].Queries); !ok {
		t.Fatal("test workload should be single-shard routable")
	}
	plainE := New(inst, Options{Workers: 4})
	shardE := New(sh, Options{Workers: 4})
	want := plainE.CoordinateMany(context.Background(), mkReqs())
	got := shardE.CoordinateMany(context.Background(), mkReqs())
	for i := range want {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("request %d: errs %v / %v", i, want[i].Err, got[i].Err)
		}
		if !reflect.DeepEqual(want[i].Result.Set, got[i].Result.Set) {
			t.Fatalf("request %d: sets differ: %v vs %v", i, want[i].Result.Set, got[i].Result.Set)
		}
		if want[i].Result.DBQueries != got[i].Result.DBQueries {
			t.Fatalf("request %d: DBQueries %d vs %d", i, want[i].Result.DBQueries, got[i].Result.DBQueries)
		}
		if err := coord.Verify(mkReqs()[i].Queries, got[i].Result.Set, got[i].Result.Values, sh); err != nil {
			t.Fatalf("request %d: routed witness fails verification: %v", i, err)
		}
	}
}

// TestCoordinateManyShardedMixedRoutability mixes routable and
// non-routable requests in one batch over a sharded store; every
// response must still be correct and exactly metered.
func TestCoordinateManyShardedMixedRoutability(t *testing.T) {
	_, sh := exactMeteringStores()
	e := New(sh, Options{Workers: 8})
	reqs := make([]Request, 24)
	for i := range reqs {
		if i%2 == 0 {
			reqs[i] = Request{ID: fmt.Sprintf("routable%d", i), Queries: workload.ListQueries(8, 1)}
		} else {
			reqs[i] = Request{ID: fmt.Sprintf("scatter%d", i), Queries: workload.ListQueries(8, testRows)}
		}
	}
	solo := map[bool]int64{}
	for _, routable := range []bool{true, false} {
		rows := testRows
		if routable {
			rows = 1
		}
		res, err := coord.SCCCoordinate(workload.ListQueries(8, rows), sh, coord.Options{})
		if err != nil {
			t.Fatal(err)
		}
		solo[routable] = res.DBQueries
	}
	for i, resp := range e.CoordinateMany(context.Background(), reqs) {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		if resp.Result.Size() != 8 {
			t.Fatalf("request %d: set size %d, want 8", i, resp.Result.Size())
		}
		if want := solo[i%2 == 0]; resp.Result.DBQueries != want {
			t.Fatalf("request %d: DBQueries %d, want %d", i, resp.Result.DBQueries, want)
		}
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
