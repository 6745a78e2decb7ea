package stream_test

import (
	"runtime"
	"testing"

	"entangled/internal/stream"
	"entangled/internal/workload"
)

// churnPair is one departure and the re-arrival of the same query: the
// unit of the benchmark's stationary churn.
type churnPair struct {
	name     string
	position int // which member of chain 0 leaves and comes back
}

// measurePair reports what one leave + rejoin pair costs a warm
// session, per event: allocations (testing.AllocsPerRun), bytes (a
// runtime.MemStats.TotalAlloc delta) and the components the pair
// dirtied. It performs 21 departures.
func measurePair(t *testing.T, s *stream.Session, p churnPair, rows int) (allocs, bytes float64, dirty int) {
	t.Helper()
	q := workload.ChainQuery(0, p.position, rows)
	pair := func() {
		up, err := s.Leave(q.ID)
		if err != nil {
			t.Fatal(err)
		}
		dirty = up.Stats.Dirty
		if up, err = s.Join(q); err != nil {
			t.Fatal(err)
		}
		dirty += up.Stats.Dirty
	}
	allocs = testing.AllocsPerRun(10, pair) / 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (2 * runs), dirty
}

// TestSteadyStateAllocationBudget holds the delta path to its promise:
// a steady-state event allocates for the components it dirties, not
// for the live set around them. It builds the benchmark's session shape
// — chains of 16 workload.ChainQuery — at 64 and at 256 live queries,
// warms each through one slot compaction, and measures a tail-clip +
// rejoin pair and an interior leave + rejoin pair (a pruning cascade
// over the stranded suffix). Each dirties one component: the chain it
// re-forms, the largest set, which the walk searches first and stops
// at; the interior pair dirtied 8 while the walk searched every set.
//
// Before reconcile ran on reused integer scratch the pairs cost 322 KB
// and 438 KB per event at 256 live (72 KB and 105 KB at 64 live), 4.5x
// and 4.2x their own 64-live figures. With a database frame allocated
// per grounded component they cost 325 B and 1,717 B at either size.
// An evicted outcome now hands its frame back, and they cost 197 B and
// 917 B, and 229 B for the interior pair once it dirtied one component;
// the byte ceilings below sit above that.
func TestSteadyStateAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		chainLen = 16
		// The ceiling per event: a base plus so much per component the
		// event dirtied.
		baseBytes, perDirtyBytes   = 128, 256
		baseAllocs, perDirtyAllocs = 30, 40
	)
	pairs := []churnPair{{"tail-clip", chainLen - 1}, {"interior", chainLen / 2}}
	got := map[int]map[string]float64{}
	for _, chains := range []int{4, 16} {
		live := chains * chainLen
		store := workload.NewStore(1, chains, 0)
		s := stream.New(store, stream.Options{})
		for c := 0; c < chains; c++ {
			for i := 0; i < chainLen; i++ {
				if _, err := s.Join(workload.ChainQuery(c, i, chains)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Warm through one compaction: DefaultCompactAfter departures,
		// each re-joined, on the last chain's tail.
		tail := workload.ChainQuery(chains-1, chainLen-1, chains)
		compacted := false
		for i := 0; i < stream.DefaultCompactAfter; i++ {
			if _, err := s.Leave(tail.ID); err != nil {
				t.Fatal(err)
			}
			compacted = compacted || s.Tombstones() == 0
			if _, err := s.Join(tail); err != nil {
				t.Fatal(err)
			}
		}
		if !compacted || s.Size() != live {
			t.Fatalf("%d live: warm-up ended with %d live, compacted=%v", live, s.Size(), compacted)
		}
		got[live] = map[string]float64{}
		// 42 departures from here: no second compaction is measured.
		for _, p := range pairs {
			allocs, bytes, dirty := measurePair(t, s, p, chains)
			t.Logf("%3d live, %-9s pair: %6.0f B/event, %4.0f allocs/event, %d dirty", live, p.name, bytes, allocs, dirty)
			if dirty != 1 {
				t.Fatalf("%d live, %s pair dirtied %d components, want 1", live, p.name, dirty)
			}
			if max := float64(baseBytes + perDirtyBytes*dirty/2); bytes > max {
				t.Errorf("%d live, %s pair: %.0f B/event over the %.0f B budget", live, p.name, bytes, max)
			}
			if max := float64(baseAllocs + perDirtyAllocs*dirty/2); allocs > max {
				t.Errorf("%d live, %s pair: %.0f allocs/event over the budget of %.0f", live, p.name, allocs, max)
			}
			got[live][p.name] = bytes
		}
		checkSessionMatchesBatch(t, s, store, "after the measured pairs")
	}
	// The cost follows Dirty, not the live set: four times the queries
	// may not cost even half as much again.
	for _, p := range pairs {
		if small, large := got[64][p.name], got[256][p.name]; large > 1.5*small {
			t.Errorf("%s pair: %.0f B/event at 256 live is %.2fx the %.0f B at 64 live, want <= 1.5x",
				p.name, large, large/small, small)
		}
	}
}
