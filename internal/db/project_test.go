package db

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"entangled/internal/eq"
)

// Project and SelectOne against nested loops over Relation.Tuple on
// random tables: the same distinct projections in first-occurrence
// order, whichever where column carries an index (none, one, several,
// or indexes switched off), with answers small enough for the stack
// scratch and large enough to outgrow it. Values carry NULs, colons and
// digits, whatever a rendered key would have had to escape.
func TestQuickProjectMatchesNestedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alphabet := []string{"", "a", "\x00", "a\x00", "1:", "1:a", "b"}
	for trial := 0; trial < 200; trial++ {
		arity := 1 + rng.Intn(4)
		domain := 1 + rng.Intn(len(alphabet))
		wide := trial%10 == 0 // hundreds of distinct rows
		in := NewInstance()
		in.UseIndexes = rng.Intn(4) > 0
		attrs := make([]string, arity)
		for c := range attrs {
			attrs[c] = "c" + strconv.Itoa(c)
		}
		r := in.CreateRelation("R", attrs...)
		for row, rows := 0, rng.Intn(40); row < rows || (wide && row < 600); row++ {
			vals := make([]eq.Value, arity)
			for c := range vals {
				vals[c] = eq.Value(alphabet[rng.Intn(domain)])
				if wide && c == 0 {
					vals[c] = eq.Value(strconv.Itoa(rng.Intn(400)))
				}
			}
			r.Insert(vals...)
		}
		for c := 0; c < arity; c++ {
			if rng.Intn(3) == 0 {
				r.BuildIndex(c)
			}
		}
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
			var want []Tuple
			var first Tuple
		rows:
			for i := 0; i < r.Len(); i++ {
				row := r.Tuple(i)
				for c, v := range where {
					if row[c] != v {
						continue rows
					}
				}
				if first == nil {
					first = row
				}
				p := make(Tuple, len(cols))
				for j, c := range cols {
					p[j] = row[c]
				}
				if !slices.ContainsFunc(want, func(w Tuple) bool { return slices.Equal(w, p) }) {
					want = append(want, p)
				}
			}
			got, err := in.Project("R", cols, where)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Project(%v, %v) = %q, want %q", trial, cols, where, got, want)
			}
			one, ok, err := in.SelectOne("R", where)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (first != nil) || !reflect.DeepEqual(one, first) {
				t.Fatalf("trial %d: SelectOne(%v) = %q, %v, want %q", trial, where, one, ok, first)
			}
		}
	}
}
