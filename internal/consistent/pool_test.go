package consistent_test

import (
	"reflect"
	"sync"
	"testing"

	"entangled/internal/consistent"
	"entangled/internal/db"
	"entangled/internal/workload"
)

// Result.DBQueries is what this call issued, whatever else the instance
// is serving meanwhile, and a Result is the call's own whatever other
// calls do meanwhile with the kernels they share through the pool. Eight
// goroutines interleave three sets of different sizes — the movies
// example, the Figure-8 point and a random flight set — and every
// Result, held until all of them have finished, must equal its set's
// solo run.
func TestDBQueriesExactUnderConcurrency(t *testing.T) {
	type set struct {
		sch consistent.Schema
		qs  []consistent.Query
		in  *db.Instance
	}
	fig8qs, fig8 := figure8(25)
	randqs, random := randomSet()
	sets := []set{
		{consistent.MoviesSchema(), consistent.MoviesQueries(), consistent.MoviesInstance()},
		{workload.FlightSchema(), fig8qs, fig8},
		{workload.FlightSchema(), randqs, random},
	}
	solo := make([]*consistent.Result, len(sets))
	for s, c := range sets {
		res, err := consistent.Coordinate(c.sch, c.qs, c.in, consistent.Options{})
		if err != nil || res == nil {
			t.Fatalf("set %d: want a coordinating set, got %v, %v", s, res, err)
		}
		solo[s] = res
	}
	const goroutines, runs = 8, 30
	results := make([][]*consistent.Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				c := sets[(g+r)%len(sets)]
				res, err := consistent.Coordinate(c.sch, c.qs, c.in, consistent.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = append(results[g], res)
			}
		}()
	}
	wg.Wait()
	for g, rs := range results {
		for r, res := range rs {
			if s := (g + r) % len(sets); !reflect.DeepEqual(res, solo[s]) {
				t.Errorf("goroutine %d run %d: set %d\ngot  %+v\nsolo %+v", g, r, s, res, solo[s])
			}
		}
	}
}
