package db

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"entangled/internal/eq"
)

// projectRows collects the rows Project yields for one question.
func projectRows(in *Instance, rel string, cols []int, where map[int]eq.Value) ([]Tuple, error) {
	var rows []Tuple
	err := in.Project(rel, cols, 1, func(int) map[int]eq.Value { return where }, func(_ int, row Tuple) { rows = append(rows, row) })
	return rows, err
}

// Project against nested loops over Relation.Tuple on random tables:
// one yielded row per distinct projection — the full, capped row where
// it first occurs, so with no columns the first matching row — in
// first-occurrence order, whichever where column carries an index
// (none, one or several), with answers small enough for the stack
// scratch and large enough to outgrow it. Values carry NULs, colons and
// digits, whatever a rendered key would have had to escape. Every
// yielded row keeps its values through later inserts. A trial's ten
// questions asked as one batch yield each question's rows, in question
// order, and count one query.
func TestQuickProjectMatchesNestedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alphabet := []string{"", "a", "\x00", "a\x00", "1:", "1:a", "b"}
	for trial := 0; trial < 200; trial++ {
		arity := 1 + rng.Intn(4)
		domain := 1 + rng.Intn(len(alphabet))
		wide := trial%10 == 0 // hundreds of distinct rows
		in := NewInstance()
		_ = rng.Intn(4) // keeps the seeded trials as they were
		attrs := make([]string, arity)
		for c := range attrs {
			attrs[c] = "c" + strconv.Itoa(c)
		}
		r := in.CreateRelation("R", attrs...)
		randomRow := func() []eq.Value {
			vals := make([]eq.Value, arity)
			for c := range vals {
				vals[c] = eq.Value(alphabet[rng.Intn(domain)])
				if wide && c == 0 {
					vals[c] = eq.Value(strconv.Itoa(rng.Intn(400)))
				}
			}
			return vals
		}
		for row, rows := 0, rng.Intn(40); row < rows || (wide && row < 600); row++ {
			r.Insert(randomRow()...)
		}
		for c := 0; c < arity; c++ {
			if rng.Intn(3) == 0 {
				r.BuildIndex(c)
			}
		}
		var held, heldWant []Tuple
		var batchCols [10][]int
		var batchWhere [10]map[int]eq.Value
		var batchWant [10][]Tuple
		for q := 0; q < 10; q++ {
			cols := make([]int, rng.Intn(arity+1))
			for i := range cols {
				cols[i] = rng.Intn(arity)
			}
			where := map[int]eq.Value{}
			for c := 0; c < arity; c++ {
				if !wide && rng.Intn(3) == 0 {
					where[c] = eq.Value(alphabet[rng.Intn(domain)])
				}
			}
			var want, seen []Tuple
		rows:
			for i := 0; i < r.Len(); i++ {
				row := r.Tuple(i)
				for c, v := range where {
					if row[c] != v {
						continue rows
					}
				}
				p := make(Tuple, len(cols))
				for j, c := range cols {
					p[j] = row[c]
				}
				if !slices.ContainsFunc(seen, func(w Tuple) bool { return slices.Equal(w, p) }) {
					seen = append(seen, p)
					want = append(want, row)
				}
			}
			got, err := projectRows(in, "R", cols, where)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Project(%v, %v) yielded %q, want %q", trial, cols, where, got, want)
			}
			for _, row := range got {
				if len(row) != arity || cap(row) != arity {
					t.Fatalf("trial %d: yielded row %q has len %d, cap %d, want the arity %d", trial, row, len(row), cap(row), arity)
				}
				held, heldWant = append(held, row), append(heldWant, slices.Clone(row))
			}
			batchCols[q], batchWhere[q], batchWant[q] = cols, where, want
		}
		// One cols for the batch: the questions that share the first's.
		var asked []int
		for q := range batchCols {
			if slices.Equal(batchCols[q], batchCols[0]) {
				asked = append(asked, q)
			}
		}
		before := in.QueriesIssued()
		var batchGot [10][]Tuple
		last := 0
		err := in.Project("R", batchCols[0], len(asked), func(i int) map[int]eq.Value { return batchWhere[asked[i]] }, func(i int, row Tuple) {
			if i < last {
				t.Fatalf("trial %d: question %d answered after question %d", trial, i, last)
			}
			last = i
			batchGot[asked[i]] = append(batchGot[asked[i]], row)
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := in.QueriesIssued() - before; n != 1 {
			t.Fatalf("trial %d: a batch of %d questions counted %d queries, want 1", trial, len(asked), n)
		}
		for _, q := range asked {
			if !reflect.DeepEqual(batchGot[q], batchWant[q]) {
				t.Fatalf("trial %d: question %d in a batch yielded %q, alone %q", trial, q, batchGot[q], batchWant[q])
			}
		}
		for i := 0; i < 20; i++ {
			r.Insert(randomRow()...)
		}
		if !reflect.DeepEqual(held, heldWant) {
			t.Fatalf("trial %d: yielded rows changed after inserts", trial)
		}
	}
}

// A relation Project cannot read, or a column of cols or of any
// question's where past its arity, is an error found before the batch
// is counted: yield is never called, for any question, and no query is
// counted.
func TestProjectRefusesBadInput(t *testing.T) {
	in := flightsInstance()
	good := map[int]eq.Value{1: "Zurich"}
	cases := []struct {
		name   string
		rel    string
		cols   []int
		wheres []map[int]eq.Value
	}{
		{"unknown relation", "Nope", []int{0}, []map[int]eq.Value{nil}},
		{"cols past the arity", "Flights", []int{0, 2}, []map[int]eq.Value{nil}},
		{"negative cols", "Flights", []int{-1}, []map[int]eq.Value{nil}},
		{"where past the arity", "Flights", []int{0}, []map[int]eq.Value{{2: "Zurich"}}},
		{"the last question's where past the arity", "Flights", []int{0}, []map[int]eq.Value{good, nil, good, {0: "101", 2: "Zurich"}}},
	}
	for _, c := range cases {
		before := in.QueriesIssued()
		err := in.Project(c.rel, c.cols, len(c.wheres), func(i int) map[int]eq.Value { return c.wheres[i] }, func(i int, row Tuple) {
			t.Errorf("%s: yielded %v for question %d", c.name, row, i)
		})
		if err == nil {
			t.Errorf("%s: no error", c.name)
		}
		if n := in.QueriesIssued() - before; n != 0 {
			t.Errorf("%s: counted %d queries, want 0", c.name, n)
		}
	}
}
