package coord

import (
	"errors"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// TestCompactIsFree prices a compaction at the benchmark's shape — 16
// chains of 16, 64 tail clips each re-joined, so 256 live queries in
// 320 slots with a warm cache: no database query, a fixed handful of
// allocations, every cached outcome kept, and afterwards the state a
// batch run over the live queries reports.
func TestCompactIsFree(t *testing.T) {
	const chains, chainLen, runs = 16, 16, 4
	store := chainStore(chains)
	warm := func() *Incremental {
		inc := NewIncremental(store)
		for c := 0; c < chains; c++ {
			for i := 0; i < chainLen; i++ {
				if _, _, err := inc.Add(chainQuery(c, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		tail := make([]int, chains) // chain -> its tail's slot
		for c := range tail {
			tail[c] = c*chainLen + chainLen - 1
		}
		for k := 0; k < 64; k++ {
			c := k % chains
			if _, err := inc.Remove(tail[c]); err != nil {
				t.Fatal(err)
			}
			slot, _, err := inc.Add(chainQuery(c, chainLen-1))
			if err != nil {
				t.Fatal(err)
			}
			tail[c] = slot
		}
		return inc
	}
	incs := make([]*Incremental, runs+1) // AllocsPerRun warms up on one
	for i := range incs {
		incs[i] = warm()
	}
	// The cache holds chain 0's sixteen prefixes: the chain led every
	// pass it grew in, and a tie of size goes to the least set. A set
	// the walk never reached was never searched.
	cached, last := len(incs[0].cache), incs[0].last
	if cached != chainLen || incs[0].Tombstones() != 64 {
		t.Fatalf("warm coordinator: %d cached outcomes, %d tombstones", cached, incs[0].Tombstones())
	}
	before, next := store.QueriesIssued(), 0
	allocs := testing.AllocsPerRun(runs, func() {
		incs[next].Compact()
		next++
	})
	if issued := store.QueriesIssued() - before; issued != 0 {
		t.Fatalf("%d compactions issued %d database queries", runs+1, issued)
	}
	// The remap, and a refit of each re-joined tail's head and post
	// bucket (one live row where five were filed); nothing per query.
	if bar := 1.0 + 2*chains; !raceEnabled && allocs > bar {
		t.Fatalf("Compact allocates %.0f times, bar %.0f", allocs, bar)
	}
	for _, inc := range incs {
		if inc.Tombstones() != 0 || len(inc.queries) != chains*chainLen || len(inc.cache) != cached || inc.last != last {
			t.Fatalf("after Compact: %d tombstones, %d slots, %d cached outcomes (had %d), last delta %+v (was %+v)",
				inc.Tombstones(), len(inc.queries), len(inc.cache), cached, inc.last, last)
		}
	}
	checkIncrementalMatchesBatch(t, incs[0], store, last)
	// The next event splices the winner and searches nothing.
	d, err := incs[0].Remove(incs[0].Len() - 1)
	if err != nil || d.Dirty != 0 || d.Reused != 1 || d.DBQueries != 0 {
		t.Fatalf("departure after Compact: %+v, %v", d, err)
	}
	checkIncrementalMatchesBatch(t, incs[0], store, d)
}

// TestLongChurnStaysProportionalToLiveSet is the bound a session's
// memory is held to: 20,000 events at 64 live queries, every arrival
// naming a constant no query before it did and every hundredth pair a
// new relation, compacting at the session's default threshold. What the
// coordinator keeps — by-slot arrays, the graph's atom rows, bucket
// keys, cached outcomes, scratch — must follow the live set plus the
// threshold, not the 10,000 queries that have been through.
func TestLongChurnStaysProportionalToLiveSet(t *testing.T) {
	const live, threshold, events = 64, 64, 20000
	store := chainStore(1)
	inc := NewIncremental(store)
	// Queries arrive in mutually entangled pairs, so components ground
	// and are cached; the oldest query leaves.
	arrival := func(n int) eq.Query {
		rel := "R" + strconv.Itoa(n/200)
		user := func(n int) eq.Term { return eq.C(eq.Value("U" + strconv.Itoa(n))) }
		return eq.Query{
			ID:   "q" + strconv.Itoa(n),
			Post: []eq.Atom{eq.NewAtom(rel, user(n^1), eq.V("y"))},
			Head: []eq.Atom{eq.NewAtom(rel, user(n), eq.V("x"))},
			Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
		}
	}
	var slots []int // live slots, oldest first
	for n, ev := 0, 0; ev < events; ev++ {
		if len(slots) == live {
			if _, err := inc.Remove(slots[0]); err != nil {
				t.Fatalf("event %d: %v", ev, err)
			}
			slots = slots[1:]
		} else {
			slot, _, err := inc.Add(arrival(n))
			if err != nil {
				t.Fatalf("event %d: %v", ev, err)
			}
			slots, n = append(slots, slot), n+1
		}
		if inc.Tombstones() >= threshold {
			remap := inc.Compact()
			for i, slot := range slots {
				slots[i] = remap[slot]
			}
		}
	}
	if inc.TeamSize() == 0 {
		t.Fatal("the churn grounds nothing: no outcome is being cached")
	}
	const most = live + threshold
	keys := 0
	for _, b := range []*atomBuckets{&inc.g.heads, &inc.g.posts} {
		if len(b.rels) > 2 {
			t.Errorf("%d relations bucketed, at most 2 are live", len(b.rels))
		}
		for _, r := range b.rels {
			keys += len(r.byConst)
		}
	}
	for name, got := range map[string]int{
		"slots":                  len(inc.queries),
		"variable tables":        len(inc.vars),
		"liveness flags":         len(inc.g.gone),
		"head rows":              len(inc.g.heads.refs),
		"post rows":              len(inc.g.posts.refs),
		"fanout counters":        len(inc.g.fanout.n),
		"bucket constants":       keys / 2,
		"cached outcomes":        len(inc.cache),
		"slot capacity":          cap(inc.queries) / 3,
		"serial capacity":        cap(inc.serials) / 3,
		"head row capacity":      cap(inc.g.heads.refs) / 3,
		"edge capacity":          cap(inc.g.edges) / 3,
		"scratch (by slot)":      cap(inc.scr.alive) / 3,
		"scratch (by component)": cap(inc.scr.keys) / 3,
		"kept-set arena":         len(inc.arena),
	} {
		if got > most {
			t.Errorf("%s: %d after %d events at %d live, want at most %d", name, got, events, live, most)
		}
	}
}

// downStore is a store whose grounding queries (SolveUnder, the only
// ones the walk issues) fail while down is set.
type downStore struct {
	db.Store
	down bool
}

var errDown = errors.New("store: down")

func (s *downStore) SolveUnder(body []eq.Atom, sub *unify.Subst) (db.Binding, bool, error) {
	if s.down {
		return db.Binding{}, false, errDown
	}
	return s.Store.SolveUnder(body, sub)
}

// TestCompactBetweenFailedPasses compacts after every event of a store
// outage. An arrival whose pass fails is admitted unsearched, so every
// later pass searches it again and fails too. A departure whose pass
// fails leaves cached outcomes that name the departed slot; a
// compaction must drop them rather than renumber them to -1, where the
// next compaction would index the remap. Once the store is back, one
// event levels the coordinator with a twin whose store never failed
// and which never compacted.
func TestCompactBetweenFailedPasses(t *testing.T) {
	const chainLen = 6
	store := &downStore{Store: chainStore(2)}
	inc, twin := NewIncremental(store), NewIncremental(chainStore(2))
	for c := 0; c < 2; c++ {
		for i := 0; i < chainLen; i++ {
			for _, x := range []*Incremental{inc, twin} {
				if _, _, err := x.Add(chainQuery(c, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	store.down = true
	// Chain 1 grows by one query that the outage leaves unsearched.
	if slot, _, err := inc.Add(chainQuery(1, chainLen)); slot != 2*chainLen || !errors.Is(err, errDown) {
		t.Fatalf("arrival on a store that is down: slot %d, %v", slot, err)
	}
	if _, _, err := twin.Add(chainQuery(1, chainLen)); err != nil {
		t.Fatal(err)
	}
	for head := 0; head < 3; head++ { // chain 0 loses its head three times
		if _, err := inc.Remove(0); !errors.Is(err, errDown) {
			t.Fatalf("departure %d on a store that is down: %v", head, err)
		}
		if _, err := twin.Remove(head); err != nil {
			t.Fatal(err)
		}
		if remap := inc.Compact(); remap[0] != -1 || inc.Tombstones() != 0 {
			t.Fatalf("compaction %d: remap %v, %d tombstones", head, remap, inc.Tombstones())
		}
		for sig, out := range inc.cache {
			if slices.Min(out.order) < 0 || slices.Max(out.order) >= inc.Len() {
				t.Fatalf("compaction %d kept outcome %x over slots %v of %d", head, sig, out.order, inc.Len())
			}
		}
	}
	store.down = false
	for _, x := range []*Incremental{inc, twin} {
		if _, _, err := x.Add(chainQuery(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Result()
	if err != nil {
		t.Fatal(err)
	}
	pos := twin.Positions()
	for i, slot := range want.Set {
		if got.Set[i] != pos[slot] || !reflect.DeepEqual(got.Values[got.Set[i]], want.Values[slot]) {
			t.Fatalf("after the outage: team %v with %v, a coordinator that never failed has %v with %v (positions %v)",
				got.Set, got.Values, want.Set, want.Values, pos)
		}
	}
	if a, b := inc.Trace(inc.Positions()), twin.Trace(pos); len(got.Set) != len(want.Set) || !reflect.DeepEqual(a, b) {
		t.Fatalf("after the outage:\n%+v\na coordinator that never failed:\n%+v", a, b)
	}
}

// TestCompactAfterFailedRefresh: a Refresh that fails on its first
// grounding has already dropped the cache, so it drops the last pass's events and
// candidates with it — they point into outcomes a compaction could no
// longer reach to renumber. There is no result until the next pass, and
// that pass is exact.
func TestCompactAfterFailedRefresh(t *testing.T) {
	store := &downStore{Store: chainStore(2)}
	inc := NewIncremental(store)
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			if _, _, err := inc.Add(chainQuery(c, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := inc.Remove(3); err != nil { // chain 0's tail: slots 4..7 move
		t.Fatal(err)
	}
	held, err := inc.Result()
	if err != nil || len(held.Set) != 4 {
		t.Fatalf("before the outage: %+v, %v", held, err)
	}
	team := slices.Clone(held.Set)
	store.down = true
	if _, err := inc.Refresh(); !errors.Is(err, errDown) {
		t.Fatalf("refresh on a store that is down: %v", err)
	}
	inc.Compact()
	if res, err := inc.Result(); res != nil || err != nil {
		t.Fatalf("result after a failed refresh: %+v, %v", res, err)
	}
	if tr := inc.Trace(inc.Positions()); len(tr.Pruned)+len(tr.Components) != 0 || inc.TeamSize() != 0 {
		t.Fatalf("trace after a failed refresh: %+v, team %d", tr, inc.TeamSize())
	}
	if !slices.Equal(held.Set, team) {
		t.Fatalf("a result handed out before the compaction changed under its holder: %v, was %v", held.Set, team)
	}
	store.down = false
	d, err := inc.Refresh()
	if err != nil || d.Dirty != 1 || d.Reused != 0 {
		t.Fatalf("refresh once the store is back: %+v, %v", d, err)
	}
	checkIncrementalMatchesBatch(t, inc, store, DeltaStats{})
}

// failingFrom fails every SolveUnder from its from-th call on.
type failingFrom struct {
	db.Store
	calls, from int
}

func (s *failingFrom) SolveUnder(body []eq.Atom, sub *unify.Subst) (db.Binding, bool, error) {
	if s.calls++; s.calls >= s.from {
		return db.Binding{}, false, errDown
	}
	return s.Store.SolveUnder(body, sub)
}

// TestFailedPassPublishesNoTeam: a pass that stops on a store error
// leaves no candidates and no trace, so Result and TeamSize report no
// team until a pass completes. The team held before the outage is not
// kept: the store may no longer hold it.
func TestFailedPassPublishesNoTeam(t *testing.T) {
	store := &failingFrom{Store: chainStore(2), from: 1 << 30}
	inc := NewIncremental(store)
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			if _, _, err := inc.Add(chainQuery(c, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := inc.TeamSize(); n != 4 {
		t.Fatalf("before the outage: team of %d, want 4", n)
	}
	store.calls, store.from = 0, 1
	if _, err := inc.Refresh(); !errors.Is(err, errDown) {
		t.Fatalf("refresh failing at its first search: %v", err)
	}
	if res, err := inc.Result(); res != nil || err != nil || inc.TeamSize() != 0 || len(inc.Trace(nil).Components) != 0 {
		t.Fatalf("after a failed pass: result %+v, %v, team of %d, trace %+v; want none", res, err, inc.TeamSize(), inc.Trace(nil))
	}
	store.from = 1 << 30
	if _, err := inc.Refresh(); err != nil {
		t.Fatal(err)
	}
	if n := inc.TeamSize(); n != 4 {
		t.Fatalf("once the store is back: team of %d, want 4", n)
	}
	checkIncrementalMatchesBatch(t, inc, store, DeltaStats{})
}

// TestCompactRenumbersTheDeadQuery: an outcome that named its dead query
// is spliced, after a compaction moved that query, with its new slot, so
// the walk marks it dead and no other query.
func TestCompactRenumbersTheDeadQuery(t *testing.T) {
	qs := eq.MustParseSet(`
query x { head: R(X)  body: T(v) }
query a { post: R(B)  head: R(A)  body: T(v) }
query b { head: R(B)  body: E(v) }
query c { head: R(C)  body: T(v) }`)
	in := db.NewInstance()
	in.CreateRelation("T", "v").Insert("ok")
	in.CreateRelation("E", "v")
	inc := NewIncremental(in)
	add := func(q eq.Query) {
		if _, _, err := inc.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	add(qs[0])
	if _, err := inc.Remove(0); err != nil {
		t.Fatal(err)
	}
	add(qs[1])
	add(qs[2]) // {a, b} fails on b's empty body, which names b dead
	if remap := inc.Compact(); !slices.Equal(remap, []int{-1, 0, 1}) {
		t.Fatalf("remap %v", remap)
	}
	// Past the live slots, the arrays the compaction kept hold nothing.
	if q := inc.queries[inc.Len():cap(inc.queries)]; cap(q) == 0 || slices.ContainsFunc(q, func(q eq.Query) bool { return q.ID != "" }) {
		t.Fatalf("past the live slots: queries %v", q)
	}
	if v := inc.vars[inc.Len():cap(inc.vars)]; cap(v) == 0 || slices.ContainsFunc(v, func(v varTable) bool { return v.ids != nil }) {
		t.Fatalf("past the live slots: variable tables %v", v)
	}
	if r := inc.g.heads.refs; slices.ContainsFunc(r[len(r):cap(r)], func(r atomRef) bool { return r.atom.Rel != "" }) {
		t.Fatalf("past the live heads: %v", r[len(r):cap(r)])
	}
	add(qs[3])
	res, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || !slices.Equal(res.Set, []int{2}) {
		t.Fatalf("team %v, want c alone, slot 2", res)
	}
}

// TestFitGivesBackTwoThirds: a compaction moves a buffer to one of its
// own length when more than two thirds of its capacity is unused, and
// otherwise keeps it, headroom and all.
func TestFitGivesBackTwoThirds(t *testing.T) {
	for _, c := range []struct {
		len, cap int
		shrinks  bool
	}{{5, 16, true}, {5, 15, false}, {0, 1, true}, {0, 0, false}} {
		got := cap(fit(make([]int, c.len, c.cap)))
		if shrinks := got < c.cap; shrinks != c.shrinks {
			t.Errorf("fit of %d in %d: capacity %d; want a shrink: %v", c.len, c.cap, got, c.shrinks)
		}
	}
}

// TestAllCandidatesReportsStoreErrors: a store that fails during the
// family walk is an error, not a shorter family.
func TestAllCandidatesReportsStoreErrors(t *testing.T) {
	qs, in := flightHotel()
	if _, err := AllCandidates(qs, &downStore{Store: in, down: true}, Options{}); !errors.Is(err, errDown) {
		t.Fatalf("AllCandidates on a store that is down: %v, want %v", err, errDown)
	}
}
