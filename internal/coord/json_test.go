package coord

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"entangled/internal/eq"
)

// TestResultJSONGolden pins the canonical Result encoding byte for
// byte: the HTTP wire format depends on it, so a change here is a
// breaking protocol change.
func TestResultJSONGolden(t *testing.T) {
	r := Result{
		Set: []int{0, 2},
		Values: map[int]map[string]eq.Value{
			0: {"x": "c1"},
			2: {"x": "c1", "y": "t0"},
		},
		DBQueries: 7,
	}
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"set":[0,2],"values":{"0":{"x":"c1"},"2":{"x":"c1","y":"t0"}},"db_queries":7}`
	if string(got) != want {
		t.Fatalf("result encoding drifted:\ngot  %s\nwant %s", got, want)
	}
	var back Result
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("round trip changed the result:\ngot  %+v\nwant %+v", back, r)
	}
}

// TestResultJSONRejectsBadKeys checks the decoder refuses non-integer
// value keys instead of silently dropping assignments.
func TestResultJSONRejectsBadKeys(t *testing.T) {
	var r Result
	if err := json.Unmarshal([]byte(`{"set":[0],"values":{"zero":{"x":"v"}},"db_queries":1}`), &r); err == nil {
		t.Fatal("non-integer values key accepted")
	}
}

// TestDeltaStatsAndTraceJSONGolden pins the DeltaStats and Trace wire
// encodings.
func TestDeltaStatsAndTraceJSONGolden(t *testing.T) {
	d := DeltaStats{Slot: 3, Components: 4, Dirty: 1, Reused: 3, DBQueries: 2}
	got, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"slot":3,"components":4,"dirty":1,"reused":3,"db_queries":2}`
	if string(got) != want {
		t.Fatalf("delta encoding drifted:\ngot  %s\nwant %s", got, want)
	}

	tr := Trace{
		Pruned: []PruneEvent{{Query: 1, Reason: "unsatisfiable postcondition"}},
		Components: []ComponentEvent{
			{Members: []int{0}, Status: "grounded", Set: []int{0}, SetSize: 1, Combined: "T(q0.x, 'c0')"},
			{Members: []int{2}, Status: "successor failed"},
		},
	}
	gotTr, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	wantTr := `{"pruned":[{"query":1,"reason":"unsatisfiable postcondition"}],` +
		`"components":[{"members":[0],"set":[0],"status":"grounded","set_size":1,"combined":"T(q0.x, 'c0')"},` +
		`{"members":[2],"status":"successor failed"}]}`
	if string(gotTr) != wantTr {
		t.Fatalf("trace encoding drifted:\ngot  %s\nwant %s", gotTr, wantTr)
	}
	var back Trace
	if err := json.Unmarshal(gotTr, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tr) {
		t.Fatalf("trace round trip changed:\ngot  %+v\nwant %+v", back, tr)
	}
}

// TestResultJSONRoundTripProperty round-trips randomly generated
// results: decode(encode(x)) == x for any shape the algorithms can
// produce (including nil values maps and empty sets).
func TestResultJSONRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		r := Result{DBQueries: int64(rng.Intn(1000))}
		n := rng.Intn(6)
		if n > 0 {
			r.Values = map[int]map[string]eq.Value{}
			for j := 0; j < n; j++ {
				qi := rng.Intn(32)
				r.Set = append(r.Set, qi)
				m := map[string]eq.Value{}
				for v := 0; v < rng.Intn(4); v++ {
					m["v"+strconv.Itoa(v)] = eq.Value("c" + strconv.Itoa(rng.Intn(9)))
				}
				r.Values[qi] = m
			}
		}
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Result
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatal(err)
		}
		// Compare via re-encoding: nil-vs-empty distinctions that the
		// wire cannot express must not fail the property.
		buf2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf) != string(buf2) {
			t.Fatalf("round trip not stable:\nfirst  %s\nsecond %s", buf, buf2)
		}
	}
}
