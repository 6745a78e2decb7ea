package db

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"entangled/internal/eq"
)

// buildMutations is a small deterministic store build: two relations,
// one indexed, with enough rows to exercise routing on sharded stores.
func buildMutations(rows int) []Mutation {
	ms := []Mutation{
		MCreate("T", 1, "key", "val"),
		MCreate("Likes", 0, "user", "item"),
	}
	for i := 0; i < rows; i++ {
		ms = append(ms, MInsert("T", eq.Value("t"+strconv.Itoa(i)), eq.Value("c"+strconv.Itoa(i%7))))
		ms = append(ms, MInsert("Likes", eq.Value("u"+strconv.Itoa(i%5)), eq.Value("t"+strconv.Itoa(i))))
	}
	ms = append(ms, MIndex("T", 1), MIndex("Likes", 0))
	return ms
}

// probeBodies are the queries the equivalence checks answer on every
// store build.
func probeBodies() [][]eq.Atom {
	return [][]eq.Atom{
		{eq.NewAtom("T", eq.V("x"), eq.C("c3"))},
		{eq.NewAtom("T", eq.V("x"), eq.V("v"))},
		{eq.NewAtom("Likes", eq.C("u2"), eq.V("i")), eq.NewAtom("T", eq.V("i"), eq.V("v"))},
		{eq.NewAtom("T", eq.V("x"), eq.C("missing"))},
	}
}

// answersOf collects every probe's full answer list, order-sensitive.
func answersOf(t *testing.T, s Store) [][]Binding {
	t.Helper()
	var out [][]Binding
	for _, body := range probeBodies() {
		res, err := s.SolveAll(body, 0)
		if err != nil {
			t.Fatalf("SolveAll(%v): %v", body, err)
		}
		out = append(out, res)
	}
	return out
}

func TestApplyMutationsMatchesDirectWrites(t *testing.T) {
	direct := NewInstance()
	tr := direct.CreateRelation("T", "key", "val")
	lr := direct.CreateRelation("Likes", "user", "item")
	for i := 0; i < 40; i++ {
		tr.Insert(eq.Value("t"+strconv.Itoa(i)), eq.Value("c"+strconv.Itoa(i%7)))
		lr.Insert(eq.Value("u"+strconv.Itoa(i%5)), eq.Value("t"+strconv.Itoa(i)))
	}
	tr.BuildIndex(1)
	lr.BuildIndex(0)

	applied := NewInstance()
	if err := ApplyAll(applied, buildMutations(40)); err != nil {
		t.Fatal(err)
	}
	if got, want := answersOf(t, applied), answersOf(t, direct); !reflect.DeepEqual(got, want) {
		t.Fatalf("mutation-built instance answers differ:\n got %v\nwant %v", got, want)
	}
	if got, want := applied.Domain(), direct.Domain(); !reflect.DeepEqual(got, want) {
		t.Fatalf("domains differ: %v vs %v", got, want)
	}
}

func TestApplyMutationsShardedEquivalence(t *testing.T) {
	ms := buildMutations(60)
	plain := NewInstance()
	if err := ApplyAll(plain, ms); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 8} {
		sh := NewShardedInstance(k)
		if err := ApplyAll(sh, ms); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		for i, body := range probeBodies() {
			want, err := plain.SolveAll(body, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sh.SolveAll(body, 0)
			if err != nil {
				t.Fatalf("K=%d probe %d: %v", k, i, err)
			}
			if len(got) != len(want) {
				t.Fatalf("K=%d probe %d: %d answers, plain has %d", k, i, len(got), len(want))
			}
		}
		if got, want := sh.Domain(), plain.Domain(); !reflect.DeepEqual(got, want) {
			t.Fatalf("K=%d: domains differ", k)
		}
	}
}

// TestDumpMutationsRebuilds checks the snapshot contract: dumping a
// store and replaying the dump into an empty store of the same shape
// reproduces every answer in the same order.
func TestDumpMutationsRebuilds(t *testing.T) {
	for _, k := range []int{0, 1, 2, 8} { // 0 = plain instance
		var src WriteStore
		if k == 0 {
			src = NewInstance()
		} else {
			src = NewShardedInstance(k)
		}
		if err := ApplyAll(src, buildMutations(50)); err != nil {
			t.Fatal(err)
		}
		var dump []Mutation
		if err := src.DumpMutations(func(m Mutation) error {
			// Mutations escape the yield: copy the shared tuple.
			if m.Tuple != nil {
				m.Tuple = append([]eq.Value(nil), m.Tuple...)
			}
			dump = append(dump, m)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var dst WriteStore
		if k == 0 {
			dst = NewInstance()
		} else {
			dst = NewShardedInstance(k)
		}
		if err := ApplyAll(dst, dump); err != nil {
			t.Fatalf("K=%d: replaying dump: %v", k, err)
		}
		if got, want := answersOf(t, dst), answersOf(t, src); !reflect.DeepEqual(got, want) {
			t.Fatalf("K=%d: rebuilt store answers differ (binding order matters):\n got %v\nwant %v", k, got, want)
		}
		type schemer interface{ Schema() map[string]int }
		if got, want := dst.(schemer).Schema(), src.(schemer).Schema(); !reflect.DeepEqual(got, want) {
			t.Fatalf("K=%d: schemas differ: %v vs %v", k, got, want)
		}
	}
}

func TestApplyMutationErrors(t *testing.T) {
	for _, w := range []WriteStore{NewInstance(), NewShardedInstance(2)} {
		if err := w.Apply(MInsert("nope", "a")); err == nil {
			t.Fatal("insert into unknown relation succeeded")
		}
		if err := w.Apply(MIndex("nope", 0)); err == nil {
			t.Fatal("index on unknown relation succeeded")
		}
		if err := w.Apply(MCreate("R", 0)); err == nil {
			t.Fatal("create with no attributes succeeded")
		}
		if _, sharded := w.(*ShardedInstance); sharded {
			if err := w.Apply(MCreate("R", 5, "a", "b")); err == nil {
				t.Fatal("create with out-of-range hash column succeeded on sharded store")
			}
		}
		if err := w.Apply(MCreate("R", 0, "a", "b")); err != nil {
			t.Fatal(err)
		}
		if err := w.Apply(MInsert("R", "x")); err == nil {
			t.Fatal("arity-mismatched insert succeeded")
		}
		if err := w.Apply(MIndex("R", 9)); err == nil {
			t.Fatal("out-of-range index column succeeded")
		}
		if err := w.Apply(Mutation{Kind: 99, Rel: "R"}); err == nil {
			t.Fatal("unknown mutation kind succeeded")
		}
	}
}

// TestApplyBatchStopsAtFirstFailure: a batch applies the prefix before
// its first invalid mutation and nothing from there on; the error names
// the index but reads, on its own, as the mutation's plain error, and
// ApplyAll prefixes the index and the mutation.
func TestApplyBatchStopsAtFirstFailure(t *testing.T) {
	for _, w := range []WriteStore{NewInstance(), NewShardedInstance(2)} {
		ms := []Mutation{MCreate("R", 0, "a", "b"), MInsert("R", "x", "y"), MInsert("R", "x"), MInsert("R", "z", "w")}
		err := w.Apply(ms...)
		var me *MutationError
		if !errors.As(err, &me) || me.Index != 2 {
			t.Fatalf("%T: batch error %v, want a *MutationError at index 2", w, err)
		}
		if errors.Unwrap(err) != me.Err {
			t.Fatalf("%T: batch error unwraps to %v, want the mutation's %v", w, errors.Unwrap(err), me.Err)
		}
		if got, want := err.Error(), "db: insert into R: 1 values for arity 2"; got != want {
			t.Fatalf("%T: error text %q, want %q", w, got, want)
		}
		all, err := w.SolveAll([]eq.Atom{eq.NewAtom("R", eq.V("p"), eq.V("q"))}, 0)
		if err != nil || len(all) != 1 {
			t.Fatalf("%T: %d tuples after the batch (%v), want the prefix's 1", w, len(all), err)
		}
		err = ApplyAll(w, []Mutation{MInsert("R", "u", "v"), MIndex("Nope", 0)})
		if got, want := fmt.Sprint(err), "db: applying mutation 1 (index Nope col=0): db: index on unknown relation Nope"; got != want {
			t.Fatalf("%T: ApplyAll error %q, want %q", w, got, want)
		}
	}
}

func TestMutationJSONRoundTrip(t *testing.T) {
	for _, m := range buildMutations(3) {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back Mutation
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
		// Normalise nil-vs-empty before comparing.
		if back.String() != m.String() || back.Kind != m.Kind {
			t.Fatalf("round trip changed %v into %v", m, back)
		}
	}
	var m Mutation
	if err := json.Unmarshal([]byte(`{"k":"drop","rel":"T"}`), &m); err == nil {
		t.Fatal("unknown kind decoded")
	}
	if err := json.Unmarshal([]byte(`{"k":"insert"}`), &m); err == nil {
		t.Fatal("mutation without relation decoded")
	}
	if _, err := json.Marshal(Mutation{Kind: 42, Rel: "T"}); err == nil {
		t.Fatal("unknown kind encoded")
	}
}

func TestAggregatePlanStats(t *testing.T) {
	in := NewInstance()
	if err := ApplyAll(in, buildMutations(10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.Solve(probeBodies()[0]); err != nil {
		t.Fatal(err)
	}
	st, ok := AggregatePlanStats(in)
	if !ok || st.Misses == 0 {
		t.Fatalf("plain instance stats: ok=%v %+v", ok, st)
	}
	sh := NewShardedInstance(2)
	if err := ApplyAll(sh, buildMutations(10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sh.Solve(probeBodies()[0]); err != nil {
		t.Fatal(err)
	}
	if st, ok := AggregatePlanStats(sh); !ok || st.Misses == 0 {
		t.Fatalf("sharded stats: ok=%v %+v", ok, st)
	}
	if _, ok := AggregatePlanStats(NewMeter(in)); ok {
		t.Fatal("a meter should expose no plan cache")
	}
}
