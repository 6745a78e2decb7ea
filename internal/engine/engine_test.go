package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

const testRows = 500

func listInstance(t testing.TB) *db.Instance {
	t.Helper()
	inst := db.NewInstance()
	workload.UserTable(inst, testRows)
	return inst
}

// TestCoordinateMatchesSequential checks that a request costs and
// answers the same however it reaches the algorithm: Engine.Coordinate,
// a CoordinateMany batch of one and a direct coord.SCCCoordinate agree
// on team, values and the exact DBQueries, on the Figure 4 list, on
// scale-free structures and on sets that pruning cuts into — random
// safe sets whose first four queries have left, stranding whoever
// posted to them, and some of whose bodies no row satisfies — every
// one of them safe, so the engine's safety check passes them all.
func TestCoordinateMatchesSequential(t *testing.T) {
	inst := listInstance(t)
	ctx := context.Background()
	e := New(inst, Options{Workers: 8})
	check := func(name string, qs []eq.Query) (pruned int) {
		t.Helper()
		var tr coord.Trace
		seq, err := coord.SCCCoordinate(qs, inst, coord.Options{Trace: &tr})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		one, err := e.Coordinate(ctx, qs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		many := e.CoordinateMany(ctx, []Request{{ID: "r", Queries: qs}})
		if len(many) != 1 || many[0].ID != "r" || many[0].Err != nil {
			t.Fatalf("%s: batch of one answered %+v", name, many)
		}
		if !reflect.DeepEqual(seq, one) || !reflect.DeepEqual(seq, many[0].Result) {
			t.Fatalf("%s: results differ:\nSCCCoordinate  %+v\nCoordinate     %+v\nCoordinateMany %+v", name, seq, one, many[0].Result)
		}
		return len(tr.Pruned)
	}
	for _, n := range []int{1, 10, 25, 50, 100} {
		check(fmt.Sprintf("list n=%d", n), workload.ListQueries(n, testRows))
	}
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check(fmt.Sprintf("scale-free seed=%d", seed), workload.ScaleFreeQueries(40, 2, testRows, rng))
	}
	pruned := 0
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pruned += check(fmt.Sprintf("pruned seed=%d", seed), workload.RandomSafeQueries(44, testRows, 0.03, 0.8, rng)[4:])
	}
	if pruned == 0 {
		t.Fatal("the pruned shape pruned nothing")
	}
}

// TestCoordinateManySharedInstance drives a batch of independent
// requests through one shared instance and checks every response; with
// -race this exercises the db layer's concurrent-reader guarantees.
func TestCoordinateManySharedInstance(t *testing.T) {
	inst := listInstance(t)
	e := New(inst, Options{Workers: 8})
	const batch = 64
	reqs := make([]Request, batch)
	for i := range reqs {
		n := 5 + i%20
		reqs[i] = Request{ID: fmt.Sprintf("req%d", i), Queries: workload.ListQueries(n, testRows)}
	}
	out := e.CoordinateMany(context.Background(), reqs)
	if len(out) != batch {
		t.Fatalf("got %d responses, want %d", len(out), batch)
	}
	for i, r := range out {
		n := 5 + i%20
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.ID != fmt.Sprintf("req%d", i) {
			t.Fatalf("request %d: response out of order (id %s)", i, r.ID)
		}
		if r.Result.Size() != n {
			t.Fatalf("request %d: set size %d, want %d", i, r.Result.Size(), n)
		}
	}
}

// TestCoordinateManyWithConcurrentWriters runs a request batch while
// other goroutines insert into the shared instance — the serving shape
// where the database keeps growing under read traffic. Results may
// legitimately vary in witness, but never in error or set size, because
// the list workload's bodies always stay satisfiable.
func TestCoordinateManyWithConcurrentWriters(t *testing.T) {
	inst := listInstance(t)
	rel, _ := inst.Relation("T")
	e := New(inst, Options{Workers: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rel.Insert(eq.Value(fmt.Sprintf("w%d-%d", w, i)), eq.Value(fmt.Sprintf("c%d", i%testRows)))
				side := inst.CreateRelation(fmt.Sprintf("Side%d_%d", w, i), "a")
				side.Insert(eq.Value("x"))
			}
		}(w)
	}
	reqs := make([]Request, 32)
	for i := range reqs {
		reqs[i] = Request{Queries: workload.ListQueries(10, testRows)}
	}
	out := e.CoordinateMany(context.Background(), reqs)
	close(stop)
	wg.Wait()
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.Result.Size() != 10 {
			t.Fatalf("request %d: set size %d, want 10", i, r.Result.Size())
		}
	}
}

// TestCoordinateManyCancel checks that cancelling the batch context
// stops serving and surfaces ctx.Err on unserved requests.
func TestCoordinateManyCancel(t *testing.T) {
	inst := listInstance(t)
	e := New(inst, Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Queries: workload.ListQueries(5, testRows)}
	}
	out := e.CoordinateMany(ctx, reqs)
	for i, r := range out {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("request %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}
