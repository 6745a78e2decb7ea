package consistent_test

import (
	"math/rand"
	"runtime"
	"testing"

	"entangled/internal/consistent"
	"entangled/internal/db"
	"entangled/internal/netgen"
	"entangled/internal/workload"
)

// callCost reports what one Coordinate over qs costs: allocations
// (testing.AllocsPerRun) and bytes (a runtime.MemStats.TotalAlloc
// delta), per call.
func callCost(t *testing.T, qs []consistent.Query, in *db.Instance) (allocs, bytes float64) {
	t.Helper()
	sch := workload.FlightSchema()
	run := func() {
		if _, err := consistent.Coordinate(sch, qs, in, consistent.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(5, run)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// figure8 is the paper's worst case: all-wildcard users over a complete
// friendship graph and 100 flights.
func figure8(users int) ([]consistent.Query, *db.Instance) {
	in := db.NewInstance()
	workload.FlightsTable(in, 100, 100)
	workload.CompleteFriends(in, users)
	return workload.FlightQueries(users), in
}

// randomSet is the benchmark's pruning shape: 100 users with random
// constraints over 1000 flights on 100 routes and a Barabasi-Albert
// friendship graph.
func randomSet() ([]consistent.Query, *db.Instance) {
	shapes := rand.New(rand.NewSource(1))
	in := db.NewInstance()
	workload.FlightsTable(in, 1000, 100)
	workload.GraphFriends(in, netgen.BarabasiAlbert(100, 3, shapes))
	return workload.RandomFlightQueries(100, 100, 0.5, shapes), in
}

// TestCoordinateAllocationBudget holds a §5 request to its answer on the
// benchmark's two shapes. The kernel's lists, the value loop's scratch
// and the interned values are pooled, so what is left is what the
// Result points into — the members slab, the candidates' values,
// Candidates and Keys — and the Result itself: about 9.6 KB each in 9
// allocations.
//
// The members slab holds each distinct team once, not each value's
// survivors, so the answer is sized by distinct teams, not by values x
// users: Figure 8's 100 values share one team, and four times the users
// cost about 1.3 times the bytes, though the complete friendship graph
// grows sixteenfold. The allocation count does not move with the set.
func TestCoordinateAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	fig8qs, fig8 := figure8(25)
	randqs, random := randomSet()
	for _, c := range []struct {
		name   string
		qs     []consistent.Query
		in     *db.Instance
		budget float64
	}{
		{"Figure 8: 25 users x 100 flights, complete graph", fig8qs, fig8, 12.0e3},
		{"random: 100 users x 1000 flights x 100 pairs, Barabasi-Albert", randqs, random, 12.1e3},
	} {
		allocs, bytes := callCost(t, c.qs, c.in)
		t.Logf("%s: %.0f B/call, %.0f allocs/call", c.name, bytes, allocs)
		if bytes > c.budget {
			t.Errorf("%s: %.0f B/call over the %.0f B budget", c.name, bytes, c.budget)
		}
	}

	var allocs, bytes [3]float64
	for x, users := range []int{20, 40, 80} {
		qs, in := figure8(users)
		allocs[x], bytes[x] = callCost(t, qs, in)
	}
	t.Logf("Figure 8 growth: %.0f B at 20 users, %.0f B at 80 (%.1fx); %.0f, %.0f and %.0f allocs/call at 20, 40 and 80",
		bytes[0], bytes[2], bytes[2]/bytes[0], allocs[0], allocs[1], allocs[2])
	if allocs[1] != allocs[0] || allocs[2] != allocs[0] {
		t.Errorf("Figure 8: %.0f, %.0f and %.0f allocs/call at 20, 40 and 80 users: the count must not grow with the set", allocs[0], allocs[1], allocs[2])
	}
	if bytes[2] > 1.5*bytes[0] {
		t.Errorf("Figure 8: %.0f B at 80 users is over 1.5x the %.0f B at 20", bytes[2], bytes[0])
	}
}
