package consistent

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// Coordination values are told apart by comparing them. A rendered key
// that joins columns with a NUL makes ("a\x00","b") and ("a","\x00b")
// one value: two users who want different things land in one team, and
// grounding then hands the second a tuple that violates their own
// constraint.
func TestValuesWithNulDoNotCollide(t *testing.T) {
	in := db.NewInstance()
	s := in.CreateRelation("S", "key", "c1", "c2")
	s.Insert("t1", "a\x00", "b")
	s.Insert("t2", "a", "\x00b")
	f := in.CreateRelation("F", "user", "friend")
	f.Insert("U0", "U1")
	f.Insert("U1", "U0")
	sch := Schema{Table: "S", KeyCol: 0, CoordCols: []int{1, 2}, Friends: "F"}
	qs := []Query{
		{User: "U0", Coord: []Pref{Is("a\x00"), Is("b")}, Partners: []Partner{Friend}},
		{User: "U1", Coord: []Pref{Is("a"), Is("\x00b")}, Partners: []Partner{Friend}},
	}
	res, err := Coordinate(sch, qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("the two users want different values and each needs the other: want nil, got members %v keyed %v", res.Members, res.Keys)
	}
}

// "v332789" and "v529192" have one FNV-1a hash, so the kernel's two
// hash tables — preference vectors and coordination values — meet them
// in one chain, and only comparing tells them apart: two users who pin
// different values share neither an option list nor a value.
func TestHashCollisionsStayApart(t *testing.T) {
	if db.Hash("v332789") != db.Hash("v529192") {
		t.Fatal("the two values no longer collide")
	}
	in := db.NewInstance()
	s := in.CreateRelation("S", "key", "c")
	s.Insert("t1", "v332789")
	s.Insert("t2", "v529192")
	in.CreateRelation("F", "user", "friend")
	sch := Schema{Table: "S", KeyCol: 0, CoordCols: []int{1}, Friends: "F"}
	qs := []Query{{User: "U0", Coord: []Pref{Is("v332789")}}, {User: "U1", Coord: []Pref{Is("v529192")}}}
	res, err := Coordinate(sch, qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := &Result{
		Value: []eq.Value{"v332789"}, Members: []int{0}, Keys: map[int]eq.Value{0: "t1"},
		Candidates: []Candidate{{Value: []eq.Value{"v332789"}, Members: []int{0}}, {Value: []eq.Value{"v529192"}, Members: []int{1}}},
		DBQueries:  1,
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("got %+v, want %+v", res, want)
	}
}

// Input that cannot be coordinated on is an error — never a panic — and
// is reported before a database query is spent on it.
func TestBadInputIsAnErrorBeforeAnyQuery(t *testing.T) {
	in := moviesInstance()
	in.CreateRelation("Unary", "user").Insert("Will")
	friendFrom := func(rel string) func() error {
		return func() error {
			qs := moviesQueries()
			qs[3].Partners = []Partner{FriendFrom(rel)}
			_, err := Coordinate(moviesSchema(), qs, in, Options{})
			return err
		}
	}
	overlap := func(edit func(*Schema)) func() error {
		return func() error {
			sch := moviesSchema()
			edit(&sch)
			return sch.Validate(in)
		}
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"friend slot over a missing relation", friendFrom("Nope")},
		{"friend slot over a unary relation", friendFrom("Unary")},
		{"Project of a column past the arity", func() error {
			_, err := projected(in, "Unary", []int{1}, nil)
			return err
		}},
		{"Project where a column past the arity", func() error {
			_, err := projected(in, "C", []int{1}, map[int]eq.Value{2: "Jonny"})
			return err
		}},
		{"a query without its own prefs, to Coordinate and ToEntangled", func() error {
			qs := moviesQueries()
			qs[0].Own = nil
			_, err := Coordinate(moviesSchema(), qs, in, Options{})
			_, terr := ToEntangled(moviesSchema(), qs[0], in)
			if err == nil || terr == nil || err.Error() != terr.Error() {
				return nil // not one refusal in one text
			}
			return err
		}},
		{"KeyCol among CoordCols", overlap(func(s *Schema) { s.CoordCols = []int{0} })},
		{"KeyCol among OwnCols", overlap(func(s *Schema) { s.OwnCols = []int{0} })},
		{"a column both coordinated and own", overlap(func(s *Schema) { s.OwnCols = []int{1} })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := c.run(); err == nil {
				t.Fatal("want an error")
			}
		})
	}
	// The three Coordinate cases must have been refused before step 1, and
	// the two direct db calls before Project counts its batch: the instance
	// has seen no query.
	if got := in.QueriesIssued(); got != 0 {
		t.Fatalf("%d database queries issued, want none", got)
	}
}

// The kernel against the oracle on the shapes the flight-schema quick
// tests draw rarely or never: several queries per user, up to three
// friend slots across two relations (the matching path), named partners
// who submitted nothing, users befriending themselves. Everything a
// caller can observe must agree: the result, every candidate, the
// database-query count, and the trace event for event.
func TestQuickKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sch := Schema{Table: "S", KeyCol: 0, CoordCols: []int{1, 2}, OwnCols: []int{3}, Friends: "F"}
	pick := func(stem string, n int) eq.Value { return eq.Value(fmt.Sprintf("%s%d", stem, rng.Intn(n))) }
	pref := func(stem string, n int) Pref {
		if rng.Float64() < 0.3 {
			return Is(pick(stem, n))
		}
		return DontCare
	}
	matched := 0
	var kept [][2]*Result // every trial's kernel and oracle results
	for trial := 0; trial < 300; trial++ {
		users := 2 + rng.Intn(5)
		in := db.NewInstance()
		s := in.CreateRelation("S", "key", "c1", "c2", "own")
		for r, rows := 0, 3+rng.Intn(8); r < rows; r++ {
			s.Insert(eq.Value(fmt.Sprintf("t%d", r)), pick("a", 2), pick("b", 2), pick("o", 2))
		}
		if rng.Intn(2) == 0 {
			s.BuildIndex(1)
		}
		for _, rel := range []string{"F", "W"} {
			r := in.CreateRelation(rel, "user", "friend")
			for i := 0; i < users; i++ {
				for j := 0; j < users; j++ {
					if rng.Float64() < 0.45 {
						r.Insert(eq.Value(fmt.Sprintf("u%d", i)), eq.Value(fmt.Sprintf("u%d", j)))
					}
				}
			}
		}
		var qs []Query
		for i, n := 0, users+rng.Intn(users+1); i < n; i++ {
			q := Query{
				User:  pick("u", users),
				Coord: []Pref{pref("a", 2), pref("b", 2)},
				Own:   []Pref{pref("o", 3)},
			}
			for p, slots := 0, rng.Intn(4); p < slots; p++ {
				switch r := rng.Float64(); {
				case r < 0.4:
					q.Partners = append(q.Partners, Friend)
				case r < 0.75:
					q.Partners = append(q.Partners, FriendFrom("W"))
				default:
					q.Partners = append(q.Partners, With(pick("u", users+1))) // u<users> never submits
				}
			}
			qs = append(qs, q)
		}
		var gotTrace, wantTrace Trace
		got, err := Coordinate(sch, qs, in, Options{Trace: &gotTrace})
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleCoordinate(sch, qs, in, Options{Trace: &wantTrace})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: kernel\n%+v\noracle\n%+v\nqueries %+v", trial, got, want, qs)
		}
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Fatalf("trial %d: trace: kernel\n%+v\noracle\n%+v", trial, gotTrace, wantTrace)
		}
		if got != nil {
			matched++
		}
		kept = append(kept, [2]*Result{got, want})
	}
	if matched < 100 {
		t.Fatalf("only %d of 300 trials found a coordinating set: the generator under-draws", matched)
	}
	// Every later call reused the kernel; a Result pointing into it
	// would read another trial's answer by now.
	for trial, r := range kept {
		if !reflect.DeepEqual(r[0], r[1]) {
			t.Fatalf("trial %d after all trials: kernel\n%+v\noracle\n%+v", trial, r[0], r[1])
		}
	}
}

// A query can be re-examined more often than there are queries: A and
// A2 keep a friend while any of B1..B3 is in, and those fall one per
// step (B1 names G who names a ghost, B2 names B1, B3 names B2), so both
// are queued again after every fall and the ring of six wraps.
func TestRequeuedMoreOftenThanTheRingIsLong(t *testing.T) {
	in := db.NewInstance()
	in.CreateRelation("M", "movie_id", "cinema_name", "movie_name").Insert("m1", "Regal", "Hugo")
	f := in.CreateRelation("C", "user", "friend")
	ask := func(user eq.Value, ps ...Partner) Query {
		q := anyMovie()
		q.User, q.Partners = user, ps
		return q
	}
	qs := []Query{
		ask("A", Friend),
		ask("A2", Friend),
		ask("B1", With("G")),
		ask("B2", With("B1")),
		ask("B3", With("B2")),
		ask("G", With("ghost")),
	}
	for _, b := range []eq.Value{"B1", "B2", "B3"} {
		f.Insert("A", b)
		f.Insert("A2", b)
	}
	var gotTrace, wantTrace Trace
	got, err := Coordinate(moviesSchema(), qs, in, Options{Trace: &gotTrace})
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("everybody falls: want nil, got %v", got.Members)
	}
	if _, err := oracleCoordinate(moviesSchema(), qs, in, Options{Trace: &wantTrace}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTrace, wantTrace) {
		t.Fatalf("trace: kernel %+v, oracle %+v", gotTrace, wantTrace)
	}
}

// TestSpansInvert: invert turns "list i names these targets" into
// "target t is named by these lists", one list per target, each
// ascending, negative targets skipped.
func TestSpansInvert(t *testing.T) {
	var s spans
	s.reset()
	for _, l := range [][]int32{{2, -1, 0}, {}, {-1}, {2, 2}, {0}} {
		s.flat = append(s.flat, l...)
		s.end()
	}
	var out spans
	s.invert(4, &out)
	want := [][]int32{{0, 4}, {}, {0, 3, 3}, {}}
	if out.len() != len(want) {
		t.Fatalf("inverse holds %d lists, want %d", out.len(), len(want))
	}
	for i, w := range want {
		if got := out.at(int32(i)); !slices.Equal(got, w) {
			t.Fatalf("target %d named by %v, want %v", i, got, w)
		}
	}
}

// TestReleasePinsNothing: a released kernel holds none of its call's
// queries, instance or strings — no user, where clause, relation name,
// value or key — so the pool keeps no request's data alive.
func TestReleasePinsNothing(t *testing.T) {
	k := &kernel{users: map[eq.Value]int32{}, where: map[int]eq.Value{}}
	if err := k.load(moviesSchema(), moviesQueries(), moviesInstance()); err != nil {
		t.Fatal(err)
	}
	if err := k.optionLists(); err != nil {
		t.Fatal(err)
	}
	if err := k.friendLists(); err != nil {
		t.Fatal(err)
	}
	if len(k.users) == 0 || len(k.where) == 0 || len(k.vals) == 0 || len(k.keys) == 0 {
		t.Fatal("the movies call filled nothing to release")
	}
	k.release()
	if len(k.users) != 0 || len(k.where) != 0 || k.qs != nil || k.inst != nil || k.sch.Table != "" {
		t.Fatalf("released kernel keeps users %v, where %v, queries %v, instance %v or schema %v", k.users, k.where, k.qs, k.inst, k.sch)
	}
	for name, vs := range map[string][]eq.Value{"vals": k.vals, "keys": k.keys} {
		if i := slices.IndexFunc(vs, func(v eq.Value) bool { return v != "" }); i >= 0 {
			t.Fatalf("released kernel's %s[%d] = %q", name, i, vs[i])
		}
	}
	if i := slices.IndexFunc(k.rels, func(r string) bool { return r != "" }); i >= 0 {
		t.Fatalf("released kernel's rels[%d] = %q", i, k.rels[i])
	}
}
