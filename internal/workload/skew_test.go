package workload

import (
	"reflect"
	"testing"

	"entangled/internal/db"
)

func TestUserTableMutationsMatchesNewStore(t *testing.T) {
	const rows = 200
	for _, shards := range []int{1, 3} {
		direct := NewStore(shards, rows, 0)
		var replayed db.WriteStore
		if shards > 1 {
			replayed = db.NewShardedInstance(shards)
		} else {
			replayed = db.NewInstance()
		}
		if err := db.ApplyAll(replayed, UserTableMutations(rows)); err != nil {
			t.Fatal(err)
		}
		for _, at := range []int{0, 7, rows - 1} {
			body := bodyFor(at, rows)
			want, err := direct.SolveAll(body, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := replayed.SolveAll(body, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d at=%d: replayed store answers differ", shards, at)
			}
		}
		if !reflect.DeepEqual(replayed.Domain(), direct.Domain()) {
			t.Fatalf("shards=%d: domains differ", shards)
		}
	}
}

func TestSkewedMutationsDeterministic(t *testing.T) {
	o := SkewOptions{Relations: 3, MaxRows: 300, Seed: 42}
	a, b := SkewedMutations(o), SkewedMutations(o)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal options generated different streams")
	}
	o2 := o
	o2.Seed = 43
	if reflect.DeepEqual(a, SkewedMutations(o2)) {
		t.Fatal("different seeds generated identical streams")
	}
}

func TestSkewedMutationsShapes(t *testing.T) {
	o := SkewOptions{Relations: 4, MaxRows: 400, Skew: 1.5, HotKeys: 16, Seed: 7}
	counts := ZipfRowCounts(o.Relations, o.MaxRows, o.Skew)
	if counts[0] != 400 {
		t.Fatalf("largest relation has %d rows", counts[0])
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] || counts[i] < 1 {
			t.Fatalf("sizes not Zipf-ranked: %v", counts)
		}
	}
	st := db.NewInstance()
	if err := db.ApplyAll(st, SkewedMutations(o)); err != nil {
		t.Fatal(err)
	}
	schema := st.Schema()
	if len(schema) != o.Relations {
		t.Fatalf("built %d relations, want %d", len(schema), o.Relations)
	}
	// The hot-key column is genuinely skewed: in relation S0, the most
	// frequent value covers well over its uniform share of rows.
	r, _ := st.Relation("S0")
	freq := map[string]int{}
	if err := r.Tuples(func(tp db.Tuple) error {
		freq[string(tp[1])]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	max := 0
	for _, n := range freq {
		if n > max {
			max = n
		}
	}
	if uniform := counts[0] / o.HotKeys; max <= 2*uniform {
		t.Fatalf("top value covers %d of %d rows — not skewed (uniform share %d)", max, counts[0], uniform)
	}
}
