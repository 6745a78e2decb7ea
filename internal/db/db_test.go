package db

import (
	"maps"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"entangled/internal/eq"
	"entangled/internal/unify"
)

func flightsInstance() *Instance {
	in := NewInstance()
	f := in.CreateRelation("Flights", "fid", "dest")
	f.Insert("101", "Zurich")
	f.Insert("102", "Paris")
	f.Insert("103", "Zurich")
	f.BuildIndex(1)
	h := in.CreateRelation("Hotels", "hid", "loc")
	h.Insert("h1", "Zurich")
	h.Insert("h2", "Paris")
	return in
}

// valuesOf names a binding of body: slot i is the body's i-th variable
// by first occurrence.
func valuesOf(body []eq.Atom, b Binding) map[string]eq.Value {
	m := map[string]eq.Value{}
	for _, a := range body {
		for _, t := range a.Args {
			if _, seen := m[t.Name]; t.IsVar() && !seen {
				m[t.Name] = b.At(len(m))
			}
		}
	}
	return m
}

func TestSolveSingleAtom(t *testing.T) {
	in := flightsInstance()
	b, ok, err := in.Solve([]eq.Atom{eq.NewAtom("Flights", eq.V("x"), eq.C("Zurich"))})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if x := b.At(0); x != "101" && x != "103" {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveNoMatch(t *testing.T) {
	in := flightsInstance()
	_, ok, err := in.Solve([]eq.Atom{eq.NewAtom("Flights", eq.V("x"), eq.C("Oslo"))})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("no flight to Oslo")
	}
}

func TestSolveJoin(t *testing.T) {
	in := flightsInstance()
	// A flight and a hotel in the same place.
	body := []eq.Atom{
		eq.NewAtom("Flights", eq.V("f"), eq.V("loc")),
		eq.NewAtom("Hotels", eq.V("h"), eq.V("loc")),
	}
	bnd, ok, err := in.Solve(body)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	b := valuesOf(body, bnd)
	// Cross-check the join condition.
	fl, _ := in.Relation("Flights")
	ho, _ := in.Relation("Hotels")
	okF, okH := false, false
	for i := 0; i < fl.Len(); i++ {
		tp := fl.Tuple(i)
		if tp[0] == b["f"] && tp[1] == b["loc"] {
			okF = true
		}
	}
	for i := 0; i < ho.Len(); i++ {
		tp := ho.Tuple(i)
		if tp[0] == b["h"] && tp[1] == b["loc"] {
			okH = true
		}
	}
	if !okF || !okH {
		t.Fatalf("binding %v is not a join answer", b)
	}
}

func TestSolveEmptyBody(t *testing.T) {
	in := flightsInstance()
	b, ok, err := in.Solve(nil)
	if err != nil || !ok {
		t.Fatalf("empty body must be satisfiable: ok=%v err=%v", ok, err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty body binds nothing, got %v", b)
	}
}

func TestSolveRepeatedVariable(t *testing.T) {
	in := NewInstance()
	r := in.CreateRelation("P", "a", "b")
	r.Insert("1", "2")
	r.Insert("3", "3")
	b, ok, err := in.Solve([]eq.Atom{eq.NewAtom("P", eq.V("x"), eq.V("x"))})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if x := b.At(0); b.Len() != 1 || x != "3" {
		t.Fatalf("x = %v, want 3", x)
	}
}

func TestSolveUnknownRelation(t *testing.T) {
	in := NewInstance()
	if _, _, err := in.Solve([]eq.Atom{eq.NewAtom("Nope", eq.V("x"))}); err == nil {
		t.Fatal("unknown relation must error")
	}
}

func TestSolveArityMismatch(t *testing.T) {
	in := flightsInstance()
	if _, _, err := in.Solve([]eq.Atom{eq.NewAtom("Flights", eq.V("x"))}); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

func TestSolveAllLimit(t *testing.T) {
	in := flightsInstance()
	body := []eq.Atom{eq.NewAtom("Flights", eq.V("x"), eq.V("d"))}
	all, err := in.SolveAll(body, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("want 3 answers, got %d", len(all))
	}
	two, err := in.SolveAll(body, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 {
		t.Fatalf("limit 2 gave %d", len(two))
	}
}

func TestSolveUnder(t *testing.T) {
	in := flightsInstance()
	s := unify.New()
	s.Reset(2) // x and dest
	if err := s.Bind(1, "Paris"); err != nil {
		t.Fatal(err)
	}
	s.SetTerms([]int32{0, 1})
	b, ok, err := in.SolveUnder([]eq.Atom{eq.NewAtom("Flights", eq.V("x"), eq.V("dest"))}, s)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	// x is the one class the substitution leaves to the database: slot 0.
	if b.Len() != 1 || b.At(0) != "102" {
		t.Fatalf("binding %v", b)
	}
}

func TestQueryCounter(t *testing.T) {
	in := flightsInstance()
	in.ResetCounters()
	_, _, _ = in.Solve(nil)
	_, _ = in.Satisfiable(nil)
	if got := in.QueriesIssued(); got != 2 {
		t.Fatalf("QueriesIssued = %d, want 2", got)
	}
	in.ResetCounters()
	if got := in.QueriesIssued(); got != 0 {
		t.Fatalf("after reset: %d", got)
	}
}

func TestContains(t *testing.T) {
	in := flightsInstance()
	if !in.Contains(eq.NewAtom("Flights", eq.C("101"), eq.C("Zurich"))) {
		t.Fatal("tuple should be present")
	}
	if in.Contains(eq.NewAtom("Flights", eq.C("101"), eq.C("Paris"))) {
		t.Fatal("tuple should be absent")
	}
	if in.Contains(eq.NewAtom("Flights", eq.V("x"), eq.C("Paris"))) {
		t.Fatal("non-ground atom is not contained")
	}
	if in.Contains(eq.NewAtom("Nope", eq.C("1"))) {
		t.Fatal("unknown relation is not contained")
	}
}

// A Project with no where clause is a select distinct over the whole
// relation: one row per destination, the first to carry it.
func TestDistinct(t *testing.T) {
	in := flightsInstance()
	rows, err := projectRows(in, "Flights", []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Tuple{{"101", "Zurich"}, {"102", "Paris"}}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("distinct destinations = %v, want %v", rows, want)
	}
}

func TestProject(t *testing.T) {
	in := flightsInstance()
	rows, err := projectRows(in, "Flights", []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 distinct destinations, got %v", rows)
	}
	rows, err = projectRows(in, "Flights", []int{0}, map[int]eq.Value{1: "Zurich"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want flights 101 and 103, got %v", rows)
	}
	if _, err := projectRows(in, "Nope", []int{0}, nil); err == nil {
		t.Fatal("unknown relation must error")
	}
}

func TestInsertArityPanics(t *testing.T) {
	in := NewInstance()
	r := in.CreateRelation("R", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("bad arity insert must panic")
		}
	}()
	r.Insert("only-one")
}

func TestDomain(t *testing.T) {
	in := flightsInstance()
	dom := in.Domain()
	want := map[eq.Value]bool{"101": true, "Zurich": true, "Paris": true, "102": true, "103": true, "h1": true, "h2": true}
	if len(dom) != len(want) {
		t.Fatalf("domain = %v", dom)
	}
	for _, v := range dom {
		if !want[v] {
			t.Fatalf("unexpected domain value %v", v)
		}
	}
}

// naiveSolveAll enumerates all answers by plain nested loops, used as
// the oracle for the property test.
func naiveSolveAll(in *Instance, body []eq.Atom) []map[string]eq.Value {
	var results []map[string]eq.Value
	var rec func(i int, bound map[string]eq.Value)
	rec = func(i int, bound map[string]eq.Value) {
		if i == len(body) {
			results = append(results, bound)
			return
		}
		a := body[i]
		r, ok := in.Relation(a.Rel)
		if !ok {
			return
		}
		for ti := 0; ti < r.Len(); ti++ {
			tp := r.Tuple(ti)
			tmp := maps.Clone(bound)
			match := true
			for j, arg := range a.Args {
				if !arg.IsVar() {
					if arg.Const() != tp[j] {
						match = false
						break
					}
					continue
				}
				if v, ok := tmp[arg.Name]; ok {
					if v != tp[j] {
						match = false
						break
					}
					continue
				}
				tmp[arg.Name] = tp[j]
			}
			if match {
				rec(i+1, tmp)
			}
		}
	}
	rec(0, map[string]eq.Value{})
	return results
}

// Property: the indexed backtracking evaluator agrees with the naive
// nested-loop evaluator on answer sets, over random small instances and
// random conjunctive bodies.
func TestQuickEvalMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		in := NewInstance()
		r := in.CreateRelation("A", "c0", "c1")
		for i := 0; i < 1+rng.Intn(8); i++ {
			r.Insert(eq.Value(strconv.Itoa(rng.Intn(4))), eq.Value(strconv.Itoa(rng.Intn(4))))
		}
		if rng.Intn(2) == 0 {
			r.BuildIndex(rng.Intn(2))
		}
		s := in.CreateRelation("B", "c0")
		for i := 0; i < 1+rng.Intn(4); i++ {
			s.Insert(eq.Value(strconv.Itoa(rng.Intn(4))))
		}
		var body []eq.Atom
		nAtoms := 1 + rng.Intn(3)
		for i := 0; i < nAtoms; i++ {
			term := func() eq.Term {
				if rng.Intn(2) == 0 {
					return eq.V(string(rune('x' + rng.Intn(3))))
				}
				return eq.C(eq.Value(strconv.Itoa(rng.Intn(4))))
			}
			if rng.Intn(2) == 0 {
				body = append(body, eq.NewAtom("A", term(), term()))
			} else {
				body = append(body, eq.NewAtom("B", term()))
			}
		}
		got, err := in.SolveAll(body, 0)
		if err != nil {
			return false
		}
		named := make([]map[string]eq.Value, len(got))
		for i, b := range got {
			named[i] = valuesOf(body, b)
		}
		return sameBindingSet(named, naiveSolveAll(in, body))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func sameBindingSet(a, b []map[string]eq.Value) bool {
	key := func(x map[string]eq.Value) string {
		// Deterministic rendering independent of map order.
		names := []string{"x", "y", "z"}
		out := ""
		for _, n := range names {
			if v, ok := x[n]; ok {
				out += n + "=" + string(v) + ";"
			}
		}
		return out
	}
	am := map[string]int{}
	for _, x := range a {
		am[key(x)]++
	}
	bm := map[string]int{}
	for _, x := range b {
		bm[key(x)]++
	}
	if len(am) != len(bm) {
		return false
	}
	for k := range am {
		// The two evaluators may enumerate duplicates differently when a
		// binding arises from different tuples; compare as sets.
		if bm[k] == 0 {
			return false
		}
	}
	return true
}

// TestIndexedTwinSameAnswers holds every index walk to the scan it
// stands in for: SolveAll and Project (with columns, and with none: the
// first matching row) give the same answers in the same order on twins holding the same rows, BuildIndex called
// on one twin only. The indexed values repeat heavily and rows arrive
// after BuildIndex, on a plain and on a sharded instance.
func TestIndexedTwinSameAnswers(t *testing.T) {
	fill := func(insert func(...eq.Value), from, to int) {
		for i := from; i < to; i++ {
			insert(eq.Value("k"+strconv.Itoa(i)), eq.Value("v"+strconv.Itoa(i%7)), eq.Value("w"+strconv.Itoa(i%3)))
		}
	}
	build := func(insert func(...eq.Value), index func(int), indexed bool) {
		fill(insert, 0, 200)
		if indexed {
			index(1)
			index(2)
		}
		fill(insert, 200, 350)
	}
	twin := func(indexed bool) (*Instance, *ShardedInstance) {
		in := NewInstance()
		r := in.CreateRelation("R", "k", "v", "w")
		build(r.Insert, r.BuildIndex, indexed)
		sh := NewShardedInstance(3)
		sr := sh.CreateRelation("R", 0, "k", "v", "w") // every v bucket spans the shards
		build(sr.Insert, sr.BuildIndex, indexed)
		return in, sh
	}

	k, v, w := eq.V("k"), eq.V("v"), eq.V("w")
	bodies := [][]eq.Atom{
		{eq.NewAtom("R", k, eq.C("v3"), w)},
		{eq.NewAtom("R", k, v, eq.C("w2"))},
		{eq.NewAtom("R", k, eq.C("v2"), w)}, // rows before and after BuildIndex
		{eq.NewAtom("R", k, eq.C("v5"), eq.C("w0"))},
		{eq.NewAtom("R", k, v, eq.C("w1")), eq.NewAtom("R", eq.V("k2"), v, eq.C("w0"))},
		{eq.NewAtom("R", k, eq.C("none"), w)},
	}
	wheres := []map[int]eq.Value{{1: "v4"}, {2: "w2"}, {1: "v2"}, {1: "v1", 2: "w2"}, {1: "none"}, nil}
	answers := func(indexed bool) (got []any) {
		in, sh := twin(indexed)
		insts := []*Instance{in}
		for i := 0; i < sh.NumShards(); i++ {
			insts = append(insts, sh.Shard(i))
		}
		for _, body := range bodies {
			for _, s := range []Store{in, sh} {
				bs, err := s.SolveAll(body, 0)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, bs)
			}
		}
		for _, where := range wheres {
			for _, x := range insts {
				p, err := projectRows(x, "R", []int{0, 2}, where)
				if err != nil {
					t.Fatal(err)
				}
				one, err := projectRows(x, "R", nil, where)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, p, one)
			}
		}
		return got
	}
	with, without := answers(true), answers(false)
	for i := range with {
		if !reflect.DeepEqual(with[i], without[i]) {
			t.Fatalf("answer %d: indexed %v, scanned %v", i, with[i], without[i])
		}
	}
	if bs := with[4].([]Binding); len(bs) != 50 { // k2, k9, ..., k345
		t.Fatalf("v2: %d answers, want 50", len(bs))
	}
}

// TestViewsStayPut: a Tuple from Relation.Tuple, Project or Tuples
// keeps its values while later inserts grow the relation, and an
// append to one never writes into the relation.
func TestViewsStayPut(t *testing.T) {
	in := NewInstance()
	r := in.CreateRelation("R", "k", "v")
	r.Insert("a", "x")
	r.Insert("b", "y")
	r.Insert("c", "x")
	r.BuildIndex(1)
	var all []Tuple
	if err := r.Tuples(func(t Tuple) error { all = append(all, t); return nil }); err != nil {
		t.Fatal(err)
	}
	sel, err := projectRows(in, "R", nil, map[int]eq.Value{1: "x"})
	if err != nil || len(sel) != 1 {
		t.Fatalf("select: %v %v", sel, err)
	}
	views := []Tuple{r.Tuple(0), r.Tuple(1), sel[0], all[0], all[1], all[2]}
	want := []Tuple{{"a", "x"}, {"b", "y"}, {"a", "x"}, {"a", "x"}, {"b", "y"}, {"c", "x"}}
	check := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(views, want) {
			t.Fatalf("%s: views %v, want %v", when, views, want)
		}
	}
	for _, view := range views {
		_ = append(view, "z")
	}
	check("after appending to each")
	for i, wantRow := range want[:2] {
		if got := r.Tuple(i); !reflect.DeepEqual(got, wantRow) {
			t.Fatalf("row %d after appends to views: %v, want %v", i, got, wantRow)
		}
	}
	for i := 0; i < 1000; i++ {
		r.Insert(eq.Value("n"+strconv.Itoa(i)), "x")
	}
	check("after 1000 inserts")
}
