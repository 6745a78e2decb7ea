package coord

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// chainQuery builds one link of a backward chain inside a cluster: user
// (c, i) wants to coordinate with the already-present user (c, i-1).
// Backward chains are the streaming-friendly shape: a new tail extends
// the graph without touching any existing component's reachable set.
func chainQuery(c, i int) eq.Query {
	q := eq.Query{
		ID:   fmt.Sprintf("c%d.u%d", c, i),
		Head: []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(fmt.Sprintf("U%d.%d", c, i))), eq.V("x"))},
		Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C(eq.Value("c"+strconv.Itoa(c))))},
	}
	if i > 0 {
		q.Post = []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(fmt.Sprintf("U%d.%d", c, i-1))), eq.V("y"))}
	}
	return q
}

func chainStore(clusters int) *db.Instance {
	in := db.NewInstance()
	t := in.CreateRelation("T", "key", "val")
	for c := 0; c < clusters; c++ {
		t.Insert(eq.Value("t"+strconv.Itoa(c)), eq.Value("c"+strconv.Itoa(c)))
	}
	t.BuildIndex(1)
	return in
}

// TestIncrementalGraphMatchesBatch checks that growing the graph one
// query at a time ends at exactly the edge list the batch path
// computes — they share the code path, so this pins the Add bookkeeping
// (self-edges, head-vs-post probe split, fanout) against the one-shot
// build.
func TestIncrementalGraphMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		qs := randomEntangled(rng, 2+rng.Intn(8))
		g := NewIncrementalGraph()
		for _, q := range qs {
			g.Add(q)
		}
		got := g.Edges()
		want := ExtendedGraph(qs)
		if !reflect.DeepEqual(append([]ExtendedEdge{}, got...), append([]ExtendedEdge{}, want...)) {
			t.Fatalf("trial %d: incremental %v != batch %v\nqueries: %v", trial, got, want, qs)
		}
		// And the incremental unsafety report matches the batch one.
		if !reflect.DeepEqual(g.Unsafe(), UnsafeQueries(qs)) {
			t.Fatalf("trial %d: unsafe %v != %v", trial, g.Unsafe(), UnsafeQueries(qs))
		}
	}
}

// TestIncrementalGraphRemove checks that removing a query leaves the
// graph equal to one never containing it (modulo the tombstoned slot).
func TestIncrementalGraphRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		qs := randomEntangled(rng, 3+rng.Intn(6))
		victim := rng.Intn(len(qs))
		g := NewIncrementalGraph()
		for _, q := range qs {
			g.Add(q)
		}
		g.Remove(victim)
		// Rebuild without the victim, then map slot numbers: slots after
		// the victim shift down by one in the fresh build.
		var rest []eq.Query
		for i, q := range qs {
			if i != victim {
				rest = append(rest, q)
			}
		}
		want := ExtendedGraph(rest)
		shift := func(i int) int {
			if i > victim {
				return i - 1
			}
			return i
		}
		got := make([]ExtendedEdge, 0, len(g.Edges()))
		for _, e := range g.Edges() {
			got = append(got, ExtendedEdge{shift(e.FromQ), e.PostIdx, shift(e.ToQ), e.HeadIdx})
		}
		if !reflect.DeepEqual(got, append([]ExtendedEdge{}, want...)) {
			t.Fatalf("trial %d: after remove %d: %v != %v", trial, victim, got, want)
		}
	}
}

// TestIncrementalGraphMatchesPairwiseOracle is the graph's independent
// oracle. The two tests above compare two users of the same
// atomBuckets, so a prefilter that drops a candidate passes both; this
// one holds Edges to every live (postcondition, head) pair under
// unify.Unifiable, enumerated by nested loops — which come out in
// compareEdges order — and Unsafe to a recount, after every arrival
// (admitted or refused on a Probe), departure and compaction of a
// seeded script over the shapes the buckets tell apart: constant and
// variable first arguments, zero-argument atoms, one relation at two
// arities.
func TestIncrementalGraphMatchesPairwiseOracle(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		term := func() eq.Term {
			if rng.Intn(3) == 0 {
				return eq.V(string(rune('x' + rng.Intn(3))))
			}
			return eq.C(eq.Value("U" + strconv.Itoa(rng.Intn(4))))
		}
		atom := func() eq.Atom {
			switch rng.Intn(6) {
			case 0:
				return eq.NewAtom("Z")
			case 1:
				return eq.NewAtom("R", term())
			case 2:
				return eq.NewAtom("S", term(), term())
			}
			return eq.NewAtom("R", term(), term())
		}
		atoms := func(n int) []eq.Atom {
			out := make([]eq.Atom, n)
			for i := range out {
				out[i] = atom()
			}
			return out
		}

		// model is the live set by slot, nil where a query departed.
		var model []*eq.Query
		edgesAndUnsafe := func(model []*eq.Query) (edges []ExtendedEdge, unsafe []int) {
			for i, from := range model {
				bad := false
				for pi := 0; from != nil && pi < len(from.Post); pi++ {
					fanout := 0
					for j, to := range model {
						for hi := 0; to != nil && hi < len(to.Head); hi++ {
							if unify.Unifiable(from.Post[pi], to.Head[hi]) {
								edges = append(edges, ExtendedEdge{i, pi, j, hi})
								fanout++
							}
						}
					}
					bad = bad || fanout > 1
				}
				if bad {
					unsafe = append(unsafe, i)
				}
			}
			return edges, unsafe
		}

		_ = rng.Intn(2) // the coin that once chose blind adds; kept so each seed's steps stay put
		inc := NewIncremental(db.NewInstance())
		const steps = 30
		compactAt := rng.Intn(steps)
		for step := 0; step < steps; step++ {
			var op string
			switch live := inc.Len(); {
			case step == compactAt:
				op = "compact"
				inc.Compact()
				model = slices.DeleteFunc(model, func(q *eq.Query) bool { return q == nil })
			case live > 0 && rng.Intn(3) == 0:
				victim := rng.Intn(len(model))
				for model[victim] == nil {
					victim = (victim + 1) % len(model)
				}
				op = "remove " + strconv.Itoa(victim)
				if _, err := inc.Remove(victim); err != nil {
					t.Fatalf("seed %d step %d: %s: %v", seed, step, op, err)
				}
				model[victim] = nil
			default:
				q := eq.Query{ID: "q" + strconv.Itoa(step), Post: atoms(rng.Intn(3)), Head: atoms(1 + rng.Intn(2))}
				op = "add " + q.String()
				_, wantUnsafe := edgesAndUnsafe(append(model[:len(model):len(model)], &q))
				slot, _, err := inc.Add(q)
				switch {
				case len(wantUnsafe) > 0:
					if !errors.Is(err, ErrUnsafeArrival) {
						t.Fatalf("seed %d step %d: %s: err %v, but the arrival makes %v unsafe", seed, step, op, err, wantUnsafe)
					}
				case err != nil || slot != len(model):
					t.Fatalf("seed %d step %d: %s: slot %d err %v, want slot %d", seed, step, op, slot, err, len(model))
				default:
					model = append(model, &q)
				}
			}
			wantEdges, wantUnsafe := edgesAndUnsafe(model)
			if got := inc.g.Edges(); !slices.Equal(got, wantEdges) {
				t.Fatalf("seed %d step %d after %s:\nedges %v\n want %v", seed, step, op, got, wantEdges)
			}
			if got := inc.g.Unsafe(); !slices.Equal(got, wantUnsafe) {
				t.Fatalf("seed %d step %d after %s: unsafe %v, want %v", seed, step, op, got, wantUnsafe)
			}
		}
	}
}

// randomEntangled builds a small random query set with shared user
// constants, so unifiable pairs (and occasionally unsafe fanout) occur.
func randomEntangled(rng *rand.Rand, n int) []eq.Query {
	users := 1 + n/2
	user := func() eq.Term { return eq.C(eq.Value("U" + strconv.Itoa(rng.Intn(users)))) }
	qs := make([]eq.Query, n)
	for i := range qs {
		q := eq.Query{
			ID:   "q" + strconv.Itoa(i),
			Head: []eq.Atom{eq.NewAtom("R", user(), eq.V("x"))},
			Body: []eq.Atom{eq.NewAtom("T", eq.V("x"))},
		}
		for p := rng.Intn(3); p > 0; p-- {
			q.Post = append(q.Post, eq.NewAtom("R", user(), eq.V("y"+strconv.Itoa(p))))
		}
		qs[i] = q
	}
	return qs
}

// renumber maps "q<serial>." variable prefixes through serial ->
// compact index, so a session trace string can be compared
// byte-for-byte with a batch trace over the compacted set.
var prefixRe = regexp.MustCompile(`q(\d+)\.`)

func renumber(s string, bySerial map[int]int) string {
	return prefixRe.ReplaceAllStringFunc(s, func(m string) string {
		serial, _ := strconv.Atoi(m[1 : len(m)-1])
		return "q" + strconv.Itoa(bySerial[serial]) + "."
	})
}

// checkIncrementalMatchesBatch compares an Incremental's entire
// observable state against the reference batch walk (oracleCoordinate)
// over its live queries — not SCCCoordinate, itself an Incremental:
// team, witness values, full trace (pruning and component events,
// including the combined-query rendering), and the delta-cost bound —
// the event can never cost more database queries than coordinating its
// result from scratch.
func checkIncrementalMatchesBatch(t *testing.T, inc *Incremental, store db.Store, d DeltaStats) {
	t.Helper()
	compact, bySerial := map[int]int{}, map[int]int{}
	for s, j := range inc.Positions() {
		if j >= 0 {
			compact[s], bySerial[inc.serials[s]] = j, j
		}
	}
	qs := inc.LiveQueries()

	tr := &Trace{}
	batch, err := oracleCoordinate(qs, store, Options{Trace: tr})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	got, err := inc.Result()
	if err != nil {
		t.Fatalf("incremental result: %v", err)
	}
	if (got == nil) != (batch == nil) {
		t.Fatalf("result presence: incremental %v, batch %v", got, batch)
	}
	if got != nil {
		mapped := make([]int, len(got.Set))
		for i, s := range got.Set {
			mapped[i] = compact[s]
		}
		if !reflect.DeepEqual(mapped, batch.Set) {
			t.Fatalf("team: incremental %v (slots %v) != batch %v", mapped, got.Set, batch.Set)
		}
		for i, s := range got.Set {
			if !reflect.DeepEqual(got.Values[s], batch.Values[batch.Set[i]]) {
				t.Fatalf("values for slot %d: %v != %v", s, got.Values[s], batch.Values[batch.Set[i]])
			}
		}
		if err := Verify(qs, batch.Set, mappedValues(got, compact), store); err != nil {
			t.Fatalf("incremental witness fails Definition 1: %v", err)
		}
	}
	if d.DBQueries > batch.DBQueriesOrZero() {
		t.Fatalf("delta cost %d exceeds batch cost %d", d.DBQueries, batch.DBQueriesOrZero())
	}

	// Trace equality, index-for-index.
	str := inc.Trace(nil)
	if len(str.Pruned) != len(tr.Pruned) {
		t.Fatalf("pruned: %v != %v", str.Pruned, tr.Pruned)
	}
	for i, p := range str.Pruned {
		if compact[p.Query] != tr.Pruned[i].Query || p.Reason != tr.Pruned[i].Reason {
			t.Fatalf("pruned[%d]: %+v != %+v", i, p, tr.Pruned[i])
		}
	}
	if len(str.Components) != len(tr.Components) {
		t.Fatalf("components: %d != %d\n%v\n%v", len(str.Components), len(tr.Components), str.Components, tr.Components)
	}
	for i, c := range str.Components {
		want := tr.Components[i]
		if c.Status != want.Status || c.SetSize != want.SetSize {
			t.Fatalf("component %d: %+v != %+v", i, c, want)
		}
		if !reflect.DeepEqual(mapInts(c.Members, compact), want.Members) {
			t.Fatalf("component %d members: %v != %v", i, c.Members, want.Members)
		}
		if !reflect.DeepEqual(mapInts(c.Set, compact), want.Set) {
			t.Fatalf("component %d set: %v != %v", i, c.Set, want.Set)
		}
		if renumber(c.Combined, bySerial) != want.Combined {
			t.Fatalf("component %d combined:\n%q !=\n%q", i, renumber(c.Combined, bySerial), want.Combined)
		}
	}
}

func mapInts(xs []int, m map[int]int) []int {
	if xs == nil {
		return nil
	}
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = m[x]
	}
	return out
}

func mappedValues(r *Result, compact map[int]int) map[int]map[string]eq.Value {
	out := map[int]map[string]eq.Value{}
	for s, v := range r.Values {
		out[compact[s]] = v
	}
	return out
}

// DBQueriesOrZero lets the cost comparison treat "no coordinating set"
// batches uniformly.
func (r *Result) DBQueriesOrZero() int64 {
	if r == nil {
		return 1 << 62 // nil result: batch still paid; don't bound the delta
	}
	return r.DBQueries
}

// TestIncrementalMatchesBatchOnChains grows cluster chains one arrival
// at a time and checks full observable equality with batch after every
// event, plus the delta property: a chain-extending arrival costs one
// database query, the grounding of its chain, when that chain becomes
// the largest set, and none when it only ties the leader, whose cached
// outcome is spliced — cluster 0 leads every round, and a tie goes to
// the least set.
func TestIncrementalMatchesBatchOnChains(t *testing.T) {
	const clusters, perCluster = 3, 5
	store := chainStore(clusters)
	inc := NewIncremental(store)
	var billed, asked int64
	for i := 0; i < perCluster; i++ {
		for c := 0; c < clusters; c++ {
			before := store.QueriesIssued()
			_, d, err := inc.Add(chainQuery(c, i))
			billed, asked = billed+d.DBQueries, asked+store.QueriesIssued()-before
			if err != nil {
				t.Fatalf("add c%d.u%d: %v", c, i, err)
			}
			if lead := c == 0; d.Dirty != bit(lead) || d.Reused != bit(!lead) || d.DBQueries != int64(bit(lead)) {
				t.Fatalf("chain arrival c%d.u%d: %+v, want %d dirty, %d spliced", c, i, d, bit(lead), bit(!lead))
			}
			checkIncrementalMatchesBatch(t, inc, store, d)
		}
	}
	// Lifetime cost: one query a round, all of them billed.
	if want := int64(perCluster); billed != want || asked != want {
		t.Fatalf("lifetime cost: %d billed, the store asked %d times, want %d", billed, asked, want)
	}
}

// bit is 1 for true and 0 for false.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestIncrementalRandomChurn drives a random interleaving of arrivals
// and departures (including bodies the database cannot satisfy) and
// checks observable equality with batch after every event.
func TestIncrementalRandomChurn(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := chainStore(4)
		inc := NewIncremental(store)
		next := map[int]int{} // cluster -> next chain index
		var liveSlots []int
		for ev := 0; ev < 40; ev++ {
			if len(liveSlots) > 0 && rng.Float64() < 0.3 {
				k := rng.Intn(len(liveSlots))
				slot := liveSlots[k]
				liveSlots = append(liveSlots[:k], liveSlots[k+1:]...)
				d, err := inc.Remove(slot)
				if err != nil {
					t.Fatalf("seed %d remove %d: %v", seed, slot, err)
				}
				checkIncrementalMatchesBatch(t, inc, store, d)
				continue
			}
			c := rng.Intn(4)
			q := chainQuery(c, next[c])
			next[c]++
			if rng.Float64() < 0.2 {
				// An unsatisfiable body fails its component's grounding,
				// and every component that reaches it then fails unsearched.
				q.Body = []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C(eq.Value("missing")))}
			}
			slot, d, err := inc.Add(q)
			if err != nil {
				t.Fatalf("seed %d add %s: %v", seed, q.ID, err)
			}
			liveSlots = append(liveSlots, slot)
			checkIncrementalMatchesBatch(t, inc, store, d)
		}
	}
}

// TestIncrementalUnsafeAdmission checks the admission contract: an
// arrival whose postcondition would find two unifiable heads is
// rejected with ErrUnsafeArrival, the state is untouched, and after the
// conflicting query departs the same arrival is admitted.
func TestIncrementalUnsafeAdmission(t *testing.T) {
	store := chainStore(1)
	inc := NewIncremental(store)
	a := eq.Query{
		ID:   "a",
		Head: []eq.Atom{eq.NewAtom("R", eq.C("A"), eq.V("x"))},
		Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
	}
	b := eq.Query{ // second head for the same user
		ID:   "b",
		Head: []eq.Atom{eq.NewAtom("R", eq.C("A"), eq.V("x"))},
		Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
	}
	arrival := eq.Query{
		ID:   "c",
		Post: []eq.Atom{eq.NewAtom("R", eq.C("A"), eq.V("y"))},
		Head: []eq.Atom{eq.NewAtom("R", eq.C("C"), eq.V("x"))},
		Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
	}
	if _, _, err := inc.Add(a); err != nil {
		t.Fatal(err)
	}
	slotB, _, err := inc.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if slot, _, err := inc.Add(arrival); !errors.Is(err, ErrUnsafeArrival) || slot != -1 {
		t.Fatalf("unsafe arrival admitted: slot %d, %v", slot, err)
	}
	if d, err := inc.Refresh(); err != nil || d.Slot != -1 {
		t.Fatalf("Refresh touched slot %d, %v; want -1, no slot", d.Slot, err)
	}
	if inc.Len() != 2 {
		t.Fatalf("rejected arrival mutated the set: %d live", inc.Len())
	}
	if _, err := inc.Remove(slotB); err != nil {
		t.Fatal(err)
	}
	if _, d, err := inc.Add(arrival); err != nil {
		t.Fatalf("arrival should be safe after departure: %v", err)
	} else {
		checkIncrementalMatchesBatch(t, inc, store, d)
	}
}

// TestFailedEventsAreBilled: an event that fails has still asked the
// database what it asked, and its DeltaStats says so — an arrival whose
// grounding fails reports that grounding, a Refresh whose first
// grounding fails reports it — and the DeltaStats handed out add up to
// every query the store was asked, failed ones included.
func TestFailedEventsAreBilled(t *testing.T) {
	store := &downStore{Store: chainStore(1)}
	asked := db.NewMeter(store)
	inc := NewIncremental(asked)
	var billed int64
	_, d, err := inc.Add(chainQuery(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	billed += d.DBQueries
	store.down = true
	if _, d, err = inc.Add(chainQuery(0, 1)); !errors.Is(err, errDown) || d.DBQueries != 1 {
		t.Fatalf("an arrival whose grounding fails: %+v, %v; want 1 query billed", d, err)
	}
	billed += d.DBQueries
	if d, err = inc.Refresh(); !errors.Is(err, errDown) || d.DBQueries != 1 {
		t.Fatalf("a refresh whose first grounding fails: %+v, %v; want 1 query billed", d, err)
	}
	billed += d.DBQueries
	store.down = false
	if d, err = inc.Refresh(); err != nil || d.DBQueries != 1 {
		t.Fatalf("a refresh once the store is back: %+v, %v; want 1 grounding, the chain's", d, err)
	}
	billed += d.DBQueries
	if asked.QueriesIssued() != billed {
		t.Fatalf("the store was asked %d queries, the events billed %d", asked.QueriesIssued(), billed)
	}
}

// TestRemoveNeedsALiveSlot: removing a slot never handed out, or one
// already removed, is ErrNoQuery and leaves the coordinator and its
// graph as they were.
func TestRemoveNeedsALiveSlot(t *testing.T) {
	qs, in := flightHotel()
	inc := NewIncremental(in)
	for _, q := range qs {
		if _, _, err := inc.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inc.Remove(1); err != nil {
		t.Fatal(err)
	}
	edges := inc.g.Edges()
	for _, slot := range []int{1, len(qs), -1} {
		if _, err := inc.Remove(slot); !errors.Is(err, ErrNoQuery) {
			t.Fatalf("Remove(%d) = %v, want ErrNoQuery", slot, err)
		}
		inc.g.Remove(slot)
		if inc.Len() != len(qs)-1 || !slices.Equal(inc.g.Edges(), edges) {
			t.Fatalf("after Remove(%d): %d live, edges %v; want %d and %v", slot, inc.Len(), inc.g.Edges(), len(qs)-1, edges)
		}
	}
}
