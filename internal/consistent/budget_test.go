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

func figure8(users int) ([]consistent.Query, *db.Instance) {
	in := db.NewInstance()
	workload.FlightsTable(in, 100, 100)
	workload.CompleteFriends(in, users)
	return workload.FlightQueries(users), in
}

// TestCoordinateAllocationBudget holds a §5 request to what it needs on
// the benchmark's two shapes. When every value of V(Q) built its own
// membership, queue and per-slot friend sets, and Project a row list, a
// string-keyed set and a heap tuple per answer row, the Figure-8 point
// cost 7.2 MB a call and a random set 1.1 MB. With the kernel on
// integers they cost 0.25 and 0.16 MB, two thirds of it the answers
// Project built and the kernel read once; now Project yields its rows
// and the kernel copies out only the values new to V(Q), and they cost
// 75 and 94 KB. What is left is the kernel's own: the option, member
// and friend lists, and the members slab of the candidates.
//
// The growth bound is the other half of the claim: a removal requeues
// its dependents from reverse lists, and nothing in the value loop is
// sized by members × friend lists, so four times the users costs about
// five times the bytes (the complete friendship graph itself grows
// sixteenfold), where it used to cost sixteen.
func TestCoordinateAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	shapes := rand.New(rand.NewSource(1))
	pruned := db.NewInstance()
	workload.FlightsTable(pruned, 1000, 100)
	workload.GraphFriends(pruned, netgen.BarabasiAlbert(100, 3, shapes))
	fig8qs, fig8 := figure8(25)
	for _, c := range []struct {
		name   string
		qs     []consistent.Query
		in     *db.Instance
		budget float64
	}{
		{"Figure 8: 25 users x 100 flights, complete graph", fig8qs, fig8, 95e3},
		{"random: 100 users x 1000 flights x 100 pairs, Barabasi-Albert", workload.RandomFlightQueries(100, 100, 0.5, shapes), pruned, 118e3},
	} {
		allocs, bytes := callCost(t, c.qs, c.in)
		t.Logf("%s: %.0f B/call, %.0f allocs/call", c.name, bytes, allocs)
		if bytes > c.budget {
			t.Errorf("%s: %.0f B/call over the %.0f B budget", c.name, bytes, c.budget)
		}
		// Nothing is allocated per query while its answer fits Project's
		// stack scratch: the kernel's lists double as they grow, so the
		// count moves with the log of their lengths (87 and 92 here), not
		// with the number of queries.
		if allocs > 120 {
			t.Errorf("%s: %.0f allocs/call over the budget of 120", c.name, allocs)
		}
	}

	qs20, in20 := figure8(20)
	qs80, in80 := figure8(80)
	_, at20 := callCost(t, qs20, in20)
	_, at80 := callCost(t, qs80, in80)
	t.Logf("Figure 8 growth: %.0f B at 20 users, %.0f B at 80 (%.1fx)", at20, at80, at80/at20)
	if at80 > 8*at20 {
		t.Errorf("Figure 8: %.0f B at 80 users is over 8x the %.0f B at 20", at80, at20)
	}
}
