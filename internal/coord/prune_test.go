package coord

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"entangled/internal/eq"
)

// oracleCascade is the provider cascade as pruneTraced, reconcile and
// GuptaCoordinate each used to spell it: every round recounts the
// providers of every postcondition into a fresh map, then prunes, in
// ascending order, the queries left with none. The batch and streaming
// walks now share cascade.run, so their equivalence tests no longer pin
// the order of prune events against anything; this does.
func oracleCascade(qs []eq.Query, edges []ExtendedEdge, alive []bool) []PruneEvent {
	var out []PruneEvent
	for {
		changed := false
		providers := map[[2]int]int{}
		for _, e := range edges {
			if alive[e.FromQ] && alive[e.ToQ] {
				providers[[2]int{e.FromQ, e.PostIdx}]++
			}
		}
		for i, q := range qs {
			if !alive[i] {
				continue
			}
			for pi := range q.Post {
				if providers[[2]int{i, pi}] == 0 {
					alive[i] = false
					changed = true
					out = append(out, PruneEvent{Query: i, Reason: "unsatisfiable postcondition"})
					break
				}
			}
		}
		if !changed {
			return out
		}
	}
}

// TestCascadeMatchesRoundByRoundOracle runs one cascade value — its
// buffers dirty from the previous, differently sized, run — against the
// oracle on random sets (unsafe ones included: the cascade does not
// care) and on backward chains, where a single pruned query strands its
// whole suffix one round at a time.
func TestCascadeMatchesRoundByRoundOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var c cascade
	for trial := 0; trial < 400; trial++ {
		var qs []eq.Query
		if trial%4 == 0 {
			for ch := 0; ch < 1+rng.Intn(3); ch++ {
				for i := 0; i < 1+rng.Intn(12); i++ {
					qs = append(qs, chainQuery(ch, i))
				}
			}
			rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		} else {
			qs = randomEntangled(rng, 1+rng.Intn(24))
		}
		edges := ExtendedGraph(qs)
		alive := make([]bool, len(qs))
		for i := range alive {
			alive[i] = rng.Intn(6) != 0 // some queries start pruned
		}
		wantAlive := append([]bool(nil), alive...)
		want := oracleCascade(qs, edges, wantAlive)
		seed := []PruneEvent{{Query: -1, Reason: "kept"}}
		got := c.run(qs, edges, alive, seed)
		if !reflect.DeepEqual(got[1:], append([]PruneEvent{}, want...)) || got[0] != seed[0] {
			t.Fatalf("trial %d: events\n got %v\nwant %v\nqueries %v", trial, got, want, qs)
		}
		if !reflect.DeepEqual(alive, wantAlive) {
			t.Fatalf("trial %d: alive\n got %v\nwant %v", trial, alive, wantAlive)
		}
	}
}

// TestIncrementalScratchBudget prices what a session retains between
// events for reconcile's bookkeeping: at the benchmark's shape (16
// chains of 16, grown to the slot count at which the default threshold
// compacts) the scratch must stay under 72 KB — reach sets are bitset
// rows, not byte rows; 64 KB of bookkeeping plus the one search every
// solve runs on, whose substitution and body used to be retained once
// per cached outcome instead. Compact keeps it (the next pass fits in
// what the last one grew) unless the set has shrunk to under a third of
// what it was grown for.
func TestIncrementalScratchBudget(t *testing.T) {
	const chains, chainLen, budget = 16, 16, 72 << 10
	inc := NewIncremental(chainStore(chains))
	slots := map[[2]int]int{}
	join := func(c, i int) {
		slot, _, err := inc.Add(chainQuery(c, i))
		if err != nil {
			t.Fatal(err)
		}
		slots[[2]int{c, i}] = slot
	}
	for c := 0; c < chains; c++ {
		for i := 0; i < chainLen; i++ {
			join(c, i)
		}
	}
	// 63 tail clips, each re-joined: one short of the default threshold.
	for k := 0; k < 63; k++ {
		c := k % chains
		if _, err := inc.Remove(slots[[2]int{c, chainLen - 1}]); err != nil {
			t.Fatal(err)
		}
		join(c, chainLen-1)
	}
	if inc.Len() != chains*chainLen || inc.Tombstones() != 63 {
		t.Fatalf("%d live, %d tombstones", inc.Len(), inc.Tombstones())
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	inc.events = nil // their member lists point into the scratch
	with := heap()
	inc.scr = scratch{}
	without := heap()
	retained := int64(with) - int64(without)
	t.Logf("scratch of a %d-query session with %d slots: %d bytes", inc.Len(), len(inc.queries), retained)
	if retained > budget {
		t.Fatalf("scratch retains %d bytes, budget %d", retained, budget)
	}
	if retained < 4<<10 {
		t.Fatalf("scratch measured at %d bytes: the measurement is not seeing it", retained)
	}

	// One more clip regrows the scratch. Compacting 320 slots to 256
	// keeps every buffer; shrinking to one chain and compacting again
	// lets them all go.
	if _, err := inc.Remove(slots[[2]int{0, chainLen - 1}]); err != nil {
		t.Fatal(err)
	}
	join(0, chainLen-1)
	grown := cap(inc.scr.alive)
	remap := inc.Compact()
	if got := cap(inc.scr.alive); got != grown {
		t.Fatalf("Compact at %d of %d slots live resized the scratch: %d -> %d", inc.Len(), len(remap), grown, got)
	}
	for c := 1; c < chains; c++ {
		for i := chainLen - 1; i >= 0; i-- {
			if _, err := inc.Remove(remap[slots[[2]int{c, i}]]); err != nil {
				t.Fatal(err)
			}
		}
	}
	inc.Compact()
	if got := cap(inc.scr.alive); got > 3*chainLen {
		t.Fatalf("after Compact at %d live the scratch is still sized for %d slots", inc.Len(), got)
	}
	runtime.KeepAlive(inc)
}
