package eq

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermJSONRoundTrip(t *testing.T) {
	for _, tm := range []Term{V("x"), C("Zurich"), C("?odd"), C(""), C("=weird")} {
		data, err := json.Marshal(tm)
		if err != nil {
			t.Fatal(err)
		}
		var back Term
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != tm {
			t.Fatalf("round trip: %+v -> %s -> %+v", tm, data, back)
		}
	}
}

// TestTermJSONErrors pins what a term position accepts, bare and inside
// a query set, against the nested codec. The two agree everywhere but
// on null: encoding/json never shows a null to a TextUnmarshaler, so
// what the nested codec refused as an empty term now leaves the
// element as it was — the zero Term, the empty constant.
func TestTermJSONErrors(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Term
		err  string // substring; empty means accepted
	}{
		{in: `"?x"`, want: V("x")},
		{in: `"=Zurich"`, want: C("Zurich")},
		{in: `"="`, want: C("")},
		{in: `"=?odd"`, want: C("?odd")},
		{in: `""`, err: "empty term"},
		{in: `"?"`, err: "variable term with empty name"},
		{in: `"x"`, err: "must start with"},
		{in: `5`, err: "cannot unmarshal number"},
		{in: `true`, err: "cannot unmarshal bool"},
		{in: `{}`, err: "cannot unmarshal object"},
		{in: `null`, want: C("")},
	} {
		var tm Term
		err := json.Unmarshal([]byte(tc.in), &tm)
		set := []byte(`[{"head":[{"rel":"R","args":[` + tc.in + `]}]}]`)
		qs, setErr := DecodeSet(set)
		_, oracleErr := oracleDecodeSet(set)
		if tc.err != "" {
			for _, err := range []error{err, setErr, oracleErr} {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Errorf("term %s: error %v, want one naming %q", tc.in, err, tc.err)
				}
			}
			continue
		}
		if err != nil || setErr != nil || tm != tc.want || qs[0].Head[0].Args[0] != tc.want {
			t.Errorf("term %s: %+v (%v), in a set %v (%v); want %+v", tc.in, tm, err, qs, setErr, tc.want)
		}
		if (oracleErr != nil) != (tc.in == `null`) {
			t.Errorf("term %s: the nested codec says %v", tc.in, oracleErr)
		}
	}
}

func TestAtomJSON(t *testing.T) {
	a := NewAtom("R", C("Chris"), V("x"))
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"rel":"R","args":["=Chris","?x"]}`
	if string(data) != want {
		t.Fatalf("json = %s, want %s", data, want)
	}
	var back Atom
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(a) {
		t.Fatalf("round trip: %v", back)
	}
	// Field tags merge into their target where the nested codec replaced
	// it: a decode starts from a zero value.
	if err := json.Unmarshal([]byte(`{"rel":"S"}`), &back); err != nil || back.Rel != "S" || len(back.Args) != 2 {
		t.Fatalf("decode into a used atom: %v (%v); encoding/json keeps the fields the input does not name", back, err)
	}
}

// TestCheckRels: an atom without a relation name decodes — tags cannot
// refuse it — and is refused by the check, in whichever section it
// sits; DecodeSet runs the check.
func TestCheckRels(t *testing.T) {
	for _, atom := range []string{`{"args":[]}`, `{"rel":"","args":["?x"]}`, `{"rel":null}`, `{}`, `null`} {
		for _, section := range []string{"post", "head", "body"} {
			data := []byte(`{"id":"q","head":[{"rel":"R","args":["?x"]}],"` + section + `":[{"rel":"S","args":[]},` + atom + `]}`)
			if section == "head" {
				data = []byte(`{"id":"q","head":[` + atom + `]}`)
			}
			var q Query
			if err := json.Unmarshal(data, &q); err != nil {
				t.Fatalf("%s: %v", data, err)
			}
			if err := q.CheckRels(); err == nil || !strings.Contains(err.Error(), `query "q": atom without relation name`) {
				t.Errorf("CheckRels of %s: %v", data, err)
			}
			set := append(append([]byte(`[{"head":[]},`), data...), ']')
			if _, err := DecodeSet(set); err == nil {
				t.Errorf("DecodeSet accepted %s", set)
			}
			if _, err := oracleDecodeSet(set); err == nil {
				t.Errorf("the nested codec accepted %s", set)
			}
		}
	}
	for _, q := range MustParseSet("query a { post: R(A, x) head: R(B, x) body: T(x) }\nquery b { head: R(y) }") {
		if err := q.CheckRels(); err != nil {
			t.Errorf("CheckRels of %s: %v", q, err)
		}
	}
}

func TestQuerySetJSONRoundTrip(t *testing.T) {
	qs := MustParseSet(`
query gwyneth {
  post: R(Chris, x)
  head: R(Gwyneth, x)
  body: Flights(x, Zurich)
}
query chris {
  head: R(Chris, y)
  body: Flights(y, Zurich)
}`)
	data, err := json.MarshalIndent(qs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSet(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(qs) {
		t.Fatalf("len = %d", len(back))
	}
	for i := range qs {
		if qs[i].String() != back[i].String() || qs[i].ID != back[i].ID {
			t.Fatalf("query %d round trip:\n%s\n%s", i, qs[i], back[i])
		}
	}
	if !strings.Contains(string(data), `"=Chris"`) {
		t.Fatalf("encoding: %s", data)
	}
}

func TestDecodeSetErrors(t *testing.T) {
	if _, err := DecodeSet([]byte(`{`)); err == nil {
		t.Fatal("bad json must fail")
	}
}

// Property: the text parser, String renderer and JSON codec all agree —
// parse(text) == decode(encode(parse(text))).
func TestQuickJSONAgreesWithText(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	f := func() bool {
		q := randomQuery(rng)
		data, err := json.Marshal(q)
		if err != nil {
			return false
		}
		var back Query
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return back.String() == q.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func randomQuery(rng *rand.Rand) Query {
	term := func() Term {
		if rng.Intn(2) == 0 {
			return V(string(rune('x' + rng.Intn(3))))
		}
		return C(Value(string(rune('A' + rng.Intn(3)))))
	}
	atom := func(rel string) Atom {
		n := 1 + rng.Intn(3)
		args := make([]Term, n)
		for i := range args {
			args[i] = term()
		}
		return Atom{Rel: rel, Args: args}
	}
	q := Query{ID: "q"}
	for i := 0; i < rng.Intn(2); i++ {
		q.Post = append(q.Post, atom("R"))
	}
	q.Head = append(q.Head, atom("R"))
	for i := 0; i < rng.Intn(3); i++ {
		q.Body = append(q.Body, atom("T"))
	}
	return q
}
