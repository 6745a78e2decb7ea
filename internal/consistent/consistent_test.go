package consistent

import (
	"reflect"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// moviesSchema is the §5 movies example schema: M(movie_id, cinema_name,
// movie_name), coordinating on the cinema.
func moviesSchema() Schema {
	return Schema{
		Table:     "M",
		KeyCol:    0,
		CoordCols: []int{1},
		OwnCols:   []int{2},
		Friends:   "C",
	}
}

// moviesInstance builds the §5 movies database: Contagion plays at
// Regal, Project X at AMC, and Hugo at Regal, AMC and Cinemark; the C
// relation holds the band's friendships.
func moviesInstance() *db.Instance {
	in := db.NewInstance()
	m := in.CreateRelation("M", "movie_id", "cinema_name", "movie_name")
	m.Insert("m1", "Regal", "Contagion")
	m.Insert("m2", "AMC", "ProjectX")
	m.Insert("m3", "Regal", "Hugo")
	m.Insert("m4", "AMC", "Hugo")
	m.Insert("m5", "Cinemark", "Hugo")
	m.BuildIndex(1)
	c := in.CreateRelation("C", "user", "friend")
	for _, p := range [][2]eq.Value{
		{"Chris", "Jonny"}, {"Chris", "Guy"},
		{"Guy", "Chris"}, {"Guy", "Jonny"},
		{"Jonny", "Chris"}, {"Jonny", "Will"},
		{"Will", "Chris"}, {"Will", "Guy"},
	} {
		c.Insert(p[0], p[1])
	}
	c.BuildIndex(0)
	return in
}

// moviesQueries is the §5 query set: Chris wants Contagion at Regal with
// Will; Guy wants Project X at AMC with a friend; Jonny and Will want
// Hugo anywhere with a friend.
func moviesQueries() []Query {
	return []Query{
		{User: "Chris", Coord: []Pref{Is("Regal")}, Own: []Pref{Is("Contagion")}, Partners: []Partner{With("Will")}},
		{User: "Guy", Coord: []Pref{Is("AMC")}, Own: []Pref{Is("ProjectX")}, Partners: []Partner{Friend}},
		{User: "Jonny", Coord: []Pref{DontCare}, Own: []Pref{Is("Hugo")}, Partners: []Partner{Friend}},
		{User: "Will", Coord: []Pref{DontCare}, Own: []Pref{Is("Hugo")}, Partners: []Partner{Friend}},
	}
}

func TestMoviesExample(t *testing.T) {
	in := moviesInstance()
	res, err := Coordinate(moviesSchema(), moviesQueries(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("the paper's example has a coordinating set")
	}
	// The winner is Regal with everyone except Guy (§5's walk-through).
	if res.Value[0] != "Regal" {
		t.Fatalf("value = %v, want Regal", res.Value)
	}
	if !reflect.DeepEqual(res.Members, []int{0, 2, 3}) {
		t.Fatalf("members = %v, want [0 2 3] (Chris, Jonny, Will)", res.Members)
	}
	// Chris watches Contagion at Regal; Jonny and Will watch Hugo there.
	if res.Keys[0] != "m1" {
		t.Fatalf("Chris's movie = %v, want m1", res.Keys[0])
	}
	if res.Keys[2] != "m3" || res.Keys[3] != "m3" {
		t.Fatalf("Jonny/Will should get Hugo at Regal (m3): %v", res.Keys)
	}
}

func TestMoviesCandidates(t *testing.T) {
	in := moviesInstance()
	res, err := Coordinate(moviesSchema(), moviesQueries(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Candidates: Regal -> {Chris, Jonny, Will}; AMC -> {Guy, Jonny,
	// Will}; Cinemark cleans down to nothing (the §5 walk-through).
	byValue := map[eq.Value][]int{}
	for _, c := range res.Candidates {
		byValue[c.Value[0]] = c.Members
	}
	if !reflect.DeepEqual(byValue["Regal"], []int{0, 2, 3}) {
		t.Fatalf("Regal candidate = %v", byValue["Regal"])
	}
	if !reflect.DeepEqual(byValue["AMC"], []int{1, 2, 3}) {
		t.Fatalf("AMC candidate = %v", byValue["AMC"])
	}
	if _, ok := byValue["Cinemark"]; ok {
		t.Fatal("Cinemark must clean down to the empty set")
	}
}

func TestMoviesCleaningCascade(t *testing.T) {
	// GCinemark contains only Jonny and Will; Will has no friend there,
	// then Jonny follows. Verify via the full-sweep oracle too.
	in := moviesInstance()
	for _, sweep := range []bool{false, true} {
		coordinate := Coordinate
		if sweep {
			coordinate = oracleCoordinate
		}
		res, err := coordinate(moviesSchema(), moviesQueries(), in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Candidates {
			if c.Value[0] == "Cinemark" {
				t.Fatalf("sweep=%v: Cinemark should have been cleaned away", sweep)
			}
		}
	}
}

func TestNamedPartnerMustBePresent(t *testing.T) {
	// Chris asks for Will by name; if Will submits nothing, Chris cannot
	// coordinate even though Jonny could keep him company.
	in := moviesInstance()
	qs := []Query{
		{User: "Chris", Coord: []Pref{Is("Regal")}, Own: []Pref{Is("Contagion")}, Partners: []Partner{With("Will")}},
		{User: "Jonny", Coord: []Pref{DontCare}, Own: []Pref{Is("Hugo")}, Partners: []Partner{With("Chris")}},
	}
	res, err := Coordinate(moviesSchema(), qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("nobody can coordinate: Chris needs Will, Jonny needs Chris; got %v", res)
	}
}

func TestFriendSlotNeedsFriendshipRow(t *testing.T) {
	// Two users who are not friends cannot satisfy friend slots even if
	// both are present.
	in := db.NewInstance()
	m := in.CreateRelation("M", "movie_id", "cinema_name", "movie_name")
	m.Insert("m1", "Regal", "Hugo")
	in.CreateRelation("C", "user", "friend") // empty friendships
	qs := []Query{
		{User: "A", Coord: []Pref{DontCare}, Own: []Pref{DontCare}, Partners: []Partner{Friend}},
		{User: "B", Coord: []Pref{DontCare}, Own: []Pref{DontCare}, Partners: []Partner{Friend}},
	}
	res, err := Coordinate(moviesSchema(), qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("no friendships: want nil, got %v", res)
	}
}

func TestNoPartnersCoordinatesAlone(t *testing.T) {
	in := moviesInstance()
	qs := []Query{
		{User: "Chris", Coord: []Pref{Is("Regal")}, Own: []Pref{Is("Contagion")}},
	}
	res, err := Coordinate(moviesSchema(), qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Members) != 1 {
		t.Fatalf("partnerless query coordinates alone: %v", res)
	}
	if res.Keys[0] != "m1" {
		t.Fatalf("key = %v", res.Keys)
	}
}

func TestUnsatisfiableOwnConstraint(t *testing.T) {
	in := moviesInstance()
	qs := []Query{
		{User: "Chris", Coord: []Pref{DontCare}, Own: []Pref{Is("NoSuchMovie")}},
	}
	res, err := Coordinate(moviesSchema(), qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("empty option list: want nil, got %v", res)
	}
}

func TestTwoFriendSlots(t *testing.T) {
	// The "coordinate with k friends" generalization: Jonny wants two
	// distinct friends present.
	in := moviesInstance()
	qs := []Query{
		{User: "Jonny", Coord: []Pref{DontCare}, Own: []Pref{Is("Hugo")}, Partners: []Partner{Friend, Friend}},
		{User: "Chris", Coord: []Pref{DontCare}, Own: []Pref{Is("Hugo")}, Partners: []Partner{Friend}},
		{User: "Will", Coord: []Pref{DontCare}, Own: []Pref{Is("Hugo")}, Partners: []Partner{Friend}},
	}
	res, err := Coordinate(moviesSchema(), qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Jonny's friends are Chris and Will: both watch Hugo, so all three
	// coordinate (at Regal or AMC; Regal appears first).
	if res == nil || len(res.Members) != 3 {
		t.Fatalf("want all three, got %v", res)
	}
	// Dropping Will leaves Jonny with only one friend: Jonny goes, and
	// Chris follows (his only remaining friend is Jonny, who left).
	res2, err := Coordinate(moviesSchema(), qs[:2], in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2 != nil {
		t.Fatalf("two-friend requirement unmet: want nil, got %v", res2)
	}
}

func TestSchemaValidate(t *testing.T) {
	in := moviesInstance()
	bad := moviesSchema()
	bad.Table = "Nope"
	if _, err := Coordinate(bad, moviesQueries(), in, Options{}); err == nil {
		t.Fatal("unknown table must fail")
	}
	bad2 := moviesSchema()
	bad2.CoordCols = []int{9}
	if _, err := Coordinate(bad2, moviesQueries(), in, Options{}); err == nil {
		t.Fatal("column out of range must fail")
	}
	bad3 := moviesSchema()
	bad3.Friends = "M" // arity 3, not binary
	if _, err := Coordinate(bad3, moviesQueries(), in, Options{}); err == nil {
		t.Fatal("non-binary friends relation must fail")
	}
}

func TestPrefArityChecked(t *testing.T) {
	in := moviesInstance()
	qs := []Query{{User: "Chris", Coord: []Pref{DontCare, DontCare}, Own: []Pref{DontCare}}}
	if _, err := Coordinate(moviesSchema(), qs, in, Options{}); err == nil {
		t.Fatal("wrong Coord arity must fail")
	}
	qs2 := []Query{{User: "Chris", Coord: []Pref{DontCare}, Own: nil}}
	if _, err := Coordinate(moviesSchema(), qs2, in, Options{}); err == nil {
		t.Fatal("wrong Own arity must fail")
	}
}

func TestEmptyQuerySet(t *testing.T) {
	in := moviesInstance()
	before := in.QueriesIssued()
	res, err := Coordinate(moviesSchema(), nil, in, Options{})
	if err != nil || res != nil {
		t.Fatalf("empty input: res=%v err=%v", res, err)
	}
	if n := in.QueriesIssued() - before; n != 0 {
		t.Fatalf("empty input spent %d database queries, want 0", n)
	}
}

func TestDBQueryCountLinear(t *testing.T) {
	// §6.2 counts one database query per entangled query; batched, the
	// call asks one per step: one batch for V(q), one question per
	// distinct preference vector, and one for the friend lists, one
	// question per user with a friend slot; grounding reads the rows V(q)
	// returned.
	in := moviesInstance()
	qs := moviesQueries()
	res, err := Coordinate(moviesSchema(), qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 option lists (Jonny and Will ask alike) in one batch + 3 friend
	// lists (Chris has no friend slot) in another.
	if res.DBQueries != 2 {
		t.Fatalf("DBQueries = %d, want 2", res.DBQueries)
	}
}

// A call that finds no set returns nil and so bills nothing, but what
// it spent is still at most one query per step that asks anything: two
// when friend lists are read and every team then cleans away, one when
// no query has an option and step 2 asks nothing.
func TestNoSetSpendsOneQueryPerStep(t *testing.T) {
	in := db.NewInstance()
	s := in.CreateRelation("S", "key", "c")
	s.Insert("t1", "v1")
	s.Insert("t2", "v2")
	f := in.CreateRelation("F", "user", "friend")
	f.Insert("U0", "U1")
	f.Insert("U1", "U0")
	sch := Schema{Table: "S", KeyCol: 0, CoordCols: []int{1}, Friends: "F"}
	for _, c := range []struct {
		name   string
		values [2]eq.Value
		want   int64
	}{
		{"friends who want different values", [2]eq.Value{"v1", "v2"}, 2},
		{"values no row has", [2]eq.Value{"v3", "v4"}, 1},
	} {
		qs := []Query{
			{User: "U0", Coord: []Pref{Is(c.values[0])}, Partners: []Partner{Friend}},
			{User: "U1", Coord: []Pref{Is(c.values[1])}, Partners: []Partner{Friend}},
		}
		before := in.QueriesIssued()
		res, err := Coordinate(sch, qs, in, Options{})
		if err != nil || res != nil {
			t.Fatalf("%s: want no set, got %v, %v", c.name, res, err)
		}
		if spent := in.QueriesIssued() - before; spent != c.want {
			t.Errorf("%s: the instance counted %d queries, want %d", c.name, spent, c.want)
		}
	}
}

func TestPrefAndPartnerString(t *testing.T) {
	if DontCare.String() != "*" || Is("Regal").String() != "Regal" {
		t.Fatal("Pref rendering broken")
	}
}

func TestTraceMoviesWalkthrough(t *testing.T) {
	// The trace must mirror the §5 walk-through: option list sizes
	// (1, 1, 3, 3), and the Cinemark value shrinking {Jonny, Will} down
	// to nothing during cleaning.
	in := moviesInstance()
	tr := &Trace{}
	if _, err := Coordinate(moviesSchema(), moviesQueries(), in, Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 3, 3}
	for i, w := range want {
		if tr.OptionCounts[i] != w {
			t.Fatalf("option counts = %v, want %v", tr.OptionCounts, want)
		}
	}
	if len(tr.Values) != 3 {
		t.Fatalf("three candidate values examined: %v", tr.Values)
	}
	var cinemark *ValueEvent
	for i := range tr.Values {
		if tr.Values[i].Value[0] == "Cinemark" {
			cinemark = &tr.Values[i]
		}
	}
	if cinemark == nil {
		t.Fatal("Cinemark must be examined")
	}
	if len(cinemark.Initial) != 2 || len(cinemark.Survivors) != 0 {
		t.Fatalf("Cinemark cleaning: %+v", cinemark)
	}
	// A Trace reused for a second call describes that call alone.
	if _, err := Coordinate(moviesSchema(), moviesQueries(), in, Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Values) != 3 || len(tr.OptionCounts) != 4 {
		t.Fatalf("a reused trace: %d values, %d option counts; want 3 and 4", len(tr.Values), len(tr.OptionCounts))
	}
}
