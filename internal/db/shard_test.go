package db

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"entangled/internal/eq"
)

// fillPair builds the same three-relation contents on a plain instance
// and a sharded one: Emp(id, dept), Dept(dept, city) hash-partitioned
// on dept, and Loc(city) on city.
func fillPair(k, rows int, rng *rand.Rand) (*Instance, *ShardedInstance) {
	inst := NewInstance()
	sh := NewShardedInstance(k)
	emp := inst.CreateRelation("Emp", "id", "dept")
	dept := inst.CreateRelation("Dept", "dept", "city")
	loc := inst.CreateRelation("Loc", "city")
	semp := sh.CreateRelation("Emp", 1, "id", "dept")
	sdept := sh.CreateRelation("Dept", 0, "dept", "city")
	sloc := sh.CreateRelation("Loc", 0, "city")
	for i := 0; i < rows; i++ {
		id := eq.Value(fmt.Sprintf("e%d", i))
		d := eq.Value(fmt.Sprintf("d%d", rng.Intn(rows/2+1)))
		emp.Insert(id, d)
		semp.Insert(id, d)
	}
	for i := 0; i < rows/2+1; i++ {
		d := eq.Value(fmt.Sprintf("d%d", i))
		c := eq.Value(fmt.Sprintf("city%d", i%5))
		dept.Insert(d, c)
		sdept.Insert(d, c)
	}
	for i := 0; i < 5; i++ {
		c := eq.Value(fmt.Sprintf("city%d", i))
		loc.Insert(c)
		sloc.Insert(c)
	}
	emp.BuildIndex(1)
	semp.BuildIndex(1)
	dept.BuildIndex(0)
	sdept.BuildIndex(0)
	return inst, sh
}

// bindingSet canonicalises a list of bindings of one body for set
// comparison (sharding may enumerate answers in a different order).
func bindingSet(bs []Binding) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		for k := range b.Len() {
			out[i] += string(b.At(k)) + ";"
		}
	}
	sort.Strings(out)
	return out
}

// TestShardedSolveMatchesInstance checks that every query — routed,
// scatter-gather, multi-atom joins, unsatisfiable — has the same answer
// set on a sharded store as on a plain instance with the same tuples.
func TestShardedSolveMatchesInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 8} {
		inst, sh := fillPair(k, 40, rng)
		bodies := [][]eq.Atom{
			// hash column constant: routes to one shard
			{eq.NewAtom("Emp", eq.V("x"), eq.C("d3"))},
			// hash column variable: scatter-gather
			{eq.NewAtom("Emp", eq.C("e5"), eq.V("d"))},
			// join crossing relations, hash columns bound transitively
			{eq.NewAtom("Emp", eq.V("x"), eq.V("d")), eq.NewAtom("Dept", eq.V("d"), eq.V("c"))},
			// three-way join ending in an unsharded-looking unary atom
			{eq.NewAtom("Emp", eq.V("x"), eq.V("d")), eq.NewAtom("Dept", eq.V("d"), eq.V("c")), eq.NewAtom("Loc", eq.V("c"))},
			// unsatisfiable
			{eq.NewAtom("Emp", eq.V("x"), eq.C("nosuchdept"))},
			// repeated relation, two different routed constants
			{eq.NewAtom("Dept", eq.C("d1"), eq.V("c")), eq.NewAtom("Dept", eq.C("d2"), eq.V("c2"))},
		}
		for bi, body := range bodies {
			want, err := inst.SolveAll(body, 0)
			if err != nil {
				t.Fatalf("k=%d body %d: plain: %v", k, bi, err)
			}
			got, err := sh.SolveAll(body, 0)
			if err != nil {
				t.Fatalf("k=%d body %d: sharded: %v", k, bi, err)
			}
			if !reflect.DeepEqual(bindingSet(want), bindingSet(got)) {
				t.Fatalf("k=%d body %d: answer sets differ:\nplain   %v\nsharded %v", k, bi, bindingSet(want), bindingSet(got))
			}
			wantSat, _ := inst.Satisfiable(body)
			gotSat, _ := sh.Satisfiable(body)
			if wantSat != gotSat {
				t.Fatalf("k=%d body %d: satisfiable %v != %v", k, bi, wantSat, gotSat)
			}
		}
		if !reflect.DeepEqual(inst.Domain(), sh.Domain()) {
			t.Fatalf("k=%d: domains differ", k)
		}
		ground := eq.NewAtom("Emp", eq.C("e5"), eq.C("nosuchdept"))
		if sh.Contains(ground) != inst.Contains(ground) {
			t.Fatalf("k=%d: Contains mismatch on absent tuple", k)
		}
	}
}

// TestShardedPlacement checks the placement invariant: every tuple
// lives on exactly the shard its hash-column value selects, and the
// shard parts partition the relation.
func TestShardedPlacement(t *testing.T) {
	const k = 4
	sh := NewShardedInstance(k)
	r := sh.CreateRelation("R", 0, "a", "b")
	const n = 100
	for i := 0; i < n; i++ {
		r.Insert(eq.Value(fmt.Sprintf("v%d", i)), eq.Value("x"))
	}
	if r.Len() != n {
		t.Fatalf("total %d tuples, want %d", r.Len(), n)
	}
	for s := 0; s < k; s++ {
		part := r.parts[s]
		for i := 0; i < part.Len(); i++ {
			v := part.Tuple(i)[0]
			if shardIndex(v, k) != s {
				t.Fatalf("tuple %s on shard %d, hashes to %d", v, s, shardIndex(v, k))
			}
		}
	}
}

// TestHashIsFNV1a pins the placement hash to published FNV-1a 32-bit
// vectors: shard files on disk and ring fingerprints between nodes both
// depend on its values never changing.
func TestHashIsFNV1a(t *testing.T) {
	for s, want := range map[string]uint32{"": 0x811c9dc5, "a": 0xe40c292c, "foobar": 0xbf9cf968} {
		if got := Hash(s); got != want {
			t.Errorf("Hash(%q) = %08x, want %08x", s, got, want)
		}
	}
}

// TestShardedRoute checks the single-shard routing decision.
func TestShardedRoute(t *testing.T) {
	sh := NewShardedInstance(4)
	sh.CreateRelation("R", 0, "a", "b")
	q := func(body ...eq.Atom) eq.Query { return eq.Query{ID: "q", Body: body} }

	// All constants hash to the shard of "v1": routable.
	one := []eq.Query{q(eq.NewAtom("R", eq.C("v1"), eq.V("x")))}
	view, ok := sh.Route(one)
	if !ok {
		t.Fatal("single-constant request should route")
	}
	if view.(*shardView).shard != sh.shards[shardIndex("v1", 4)] {
		t.Fatal("routed to the wrong shard")
	}

	// Variable at the hash column: not routable.
	if _, ok := sh.Route([]eq.Query{q(eq.NewAtom("R", eq.V("a"), eq.V("x")))}); ok {
		t.Fatal("variable hash column must not route")
	}

	// Two constants on different shards: not routable.
	var v2 eq.Value
	for i := 0; ; i++ {
		v2 = eq.Value(fmt.Sprintf("w%d", i))
		if shardIndex(v2, 4) != shardIndex("v1", 4) {
			break
		}
	}
	split := []eq.Query{q(eq.NewAtom("R", eq.C("v1"), eq.V("x"))), q(eq.NewAtom("R", eq.C(v2), eq.V("y")))}
	if _, ok := sh.Route(split); ok {
		t.Fatal("cross-shard constants must not route")
	}

	// Unknown relation: not routable.
	if _, ok := sh.Route([]eq.Query{q(eq.NewAtom("Nope", eq.C("v1")))}); ok {
		t.Fatal("unknown relation must not route")
	}

	// Empty bodies: nothing to route by.
	if _, ok := sh.Route([]eq.Query{{ID: "empty"}}); ok {
		t.Fatal("bodyless request must not route")
	}
}

// TestShardedRouteViewMatchesFull checks that a routed view answers
// exactly like the full sharded store for routable bodies, and shares
// the parent's domain and counters.
func TestShardedRouteViewMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	_, sh := fillPair(4, 40, rng)
	body := []eq.Atom{eq.NewAtom("Dept", eq.C("d1"), eq.V("c"))}
	view, ok := sh.Route([]eq.Query{{ID: "q", Body: body}})
	if !ok {
		t.Fatal("expected routable")
	}
	want, _ := sh.SolveAll(body, 0)
	got, _ := view.SolveAll(body, 0)
	if !reflect.DeepEqual(bindingSet(want), bindingSet(got)) {
		t.Fatalf("routed answers differ: %v vs %v", bindingSet(want), bindingSet(got))
	}
	if !reflect.DeepEqual(view.Domain(), sh.Domain()) {
		t.Fatal("routed view must expose the whole instance's domain")
	}
	before := sh.QueriesIssued()
	if _, _, err := view.Solve(body); err != nil {
		t.Fatal(err)
	}
	if sh.QueriesIssued() != before+1 {
		t.Fatal("routed queries must land on the parent's aggregate counter")
	}
}

// TestShardedConcurrentReadWrite hammers a sharded store with
// concurrent routed reads, scatter-gather reads and writes; run with
// -race this exercises the per-part locking discipline.
func TestShardedConcurrentReadWrite(t *testing.T) {
	sh := NewShardedInstance(8)
	r := sh.CreateRelation("R", 1, "a", "b")
	for i := 0; i < 200; i++ {
		r.Insert(eq.Value(fmt.Sprintf("a%d", i)), eq.Value(fmt.Sprintf("b%d", i%20)))
	}
	r.BuildIndex(1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Insert(eq.Value(fmt.Sprintf("w%d-%d", w, i)), eq.Value(fmt.Sprintf("b%d", i%20)))
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Routed single-shard probe.
				if _, _, err := sh.Solve([]eq.Atom{eq.NewAtom("R", eq.V("x"), eq.C(eq.Value(fmt.Sprintf("b%d", i%20))))}); err != nil {
					t.Error(err)
					return
				}
				// Scatter-gather over all parts.
				if i%17 == 0 {
					if _, _, err := sh.Solve([]eq.Atom{eq.NewAtom("R", eq.C(eq.Value(fmt.Sprintf("a%d", i))), eq.V("y"))}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := r.Len(), 200+4*200; got != want {
		t.Fatalf("after concurrent writes: %d tuples, want %d", got, want)
	}
}

// TestMeterCountsExactly checks the per-request meter against the
// documented one-count-per-call contract and its independence from the
// underlying aggregate.
func TestMeterCountsExactly(t *testing.T) {
	inst := NewInstance()
	r := inst.CreateRelation("R", "a")
	r.Insert("x")
	m := NewMeter(inst)
	body := []eq.Atom{eq.NewAtom("R", eq.V("v"))}
	if _, _, err := m.Solve(body); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SolveAll(body, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Satisfiable(body); err != nil {
		t.Fatal(err)
	}
	m.Contains(eq.NewAtom("R", eq.C("x"))) // free
	m.Domain()                             // free
	if got := m.QueriesIssued(); got != 3 {
		t.Fatalf("meter count %d, want 3", got)
	}
	if got := inst.QueriesIssued(); got != 3 {
		t.Fatalf("aggregate count %d, want 3", got)
	}
	// A second meter over the same store starts from zero while the
	// aggregate keeps accumulating.
	m2 := NewMeter(inst)
	if _, _, err := m2.Solve(body); err != nil {
		t.Fatal(err)
	}
	if m2.QueriesIssued() != 1 || m.QueriesIssued() != 3 || inst.QueriesIssued() != 4 {
		t.Fatalf("meters not independent: m=%d m2=%d agg=%d", m.QueriesIssued(), m2.QueriesIssued(), inst.QueriesIssued())
	}
	// Resetting the meter leaves the aggregate alone.
	m.ResetCounters()
	if m.QueriesIssued() != 0 || inst.QueriesIssued() != 4 {
		t.Fatalf("meter reset leaked: m=%d agg=%d", m.QueriesIssued(), inst.QueriesIssued())
	}
}

// Len returns the total tuple count across all parts.
func (r *ShardedRelation) Len() int {
	n := 0
	for _, p := range r.parts {
		n += p.Len()
	}
	return n
}

// Schema returns relation name -> arity (every shard holds the same
// schema; shard 0 answers).
func (sh *ShardedInstance) Schema() map[string]int { return sh.shards[0].Schema() }
