package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

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
