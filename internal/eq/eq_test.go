package eq

import (
	"strings"
	"testing"
)

func TestTermConstructors(t *testing.T) {
	v := V("x")
	if !v.IsVar() || v.Name != "x" {
		t.Fatalf("V(x) = %+v", v)
	}
	c := C("Zurich")
	if c.IsVar() || c.Const() != "Zurich" {
		t.Fatalf("C(Zurich) = %+v", c)
	}
}

func TestConstOnVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Const on a variable should panic")
		}
	}()
	_ = V("x").Const()
}

func TestTermString(t *testing.T) {
	cases := []struct {
		t    Term
		want string
	}{
		{V("x1"), "x1"},
		{C("Zurich"), "Zurich"},
		{C("zurich"), "'zurich'"}, // lowercase constant must quote
		{C("101"), "101"},
		{C(""), "''"},
		{C("two words"), "'two words'"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestAtomStringAndEqual(t *testing.T) {
	a := NewAtom("R", C("Chris"), V("x"))
	if a.String() != "R(Chris, x)" {
		t.Fatalf("String = %q", a.String())
	}
	b := NewAtom("R", C("Chris"), V("x"))
	if !a.Equal(b) {
		t.Fatal("identical atoms must be Equal")
	}
	if a.Equal(NewAtom("R", C("Chris"), V("y"))) {
		t.Fatal("different vars must not be Equal")
	}
	if a.Equal(NewAtom("Q", C("Chris"), V("x"))) {
		t.Fatal("different relations must not be Equal")
	}
	if a.Equal(NewAtom("R", C("Chris"))) {
		t.Fatal("different arities must not be Equal")
	}
}

func TestAtomCloneIndependent(t *testing.T) {
	a := NewAtom("R", V("x"))
	b := a.Clone()
	b.Args[0] = C("c")
	if !a.Args[0].IsVar() {
		t.Fatal("Clone must not share argument storage")
	}
}

func TestQueryVars(t *testing.T) {
	q := Query{
		Post: []Atom{NewAtom("R", C("Chris"), V("x"))},
		Head: []Atom{NewAtom("R", C("Gwyneth"), V("x"))},
		Body: []Atom{NewAtom("Flights", V("x"), C("Zurich")), NewAtom("Hotels", V("y"), V("z"))},
	}
	got := q.Vars()
	want := []string{"x", "y", "z"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
}

func TestQueryRename(t *testing.T) {
	q := Query{
		Head: []Atom{NewAtom("R", C("A"), V("x"))},
		Body: []Atom{NewAtom("T", V("x"), C("c"))},
	}
	r := q.Rename("q7.")
	if r.Head[0].Args[1].Name != "q7.x" {
		t.Fatalf("head var not renamed: %v", r.Head[0])
	}
	if r.Body[0].Args[0].Name != "q7.x" {
		t.Fatalf("body var not renamed: %v", r.Body[0])
	}
	if r.Head[0].Args[0].Name != "A" {
		t.Fatal("constants must not be renamed")
	}
	if q.Head[0].Args[1].Name != "x" {
		t.Fatal("Rename must not mutate the original")
	}
}

func TestQueryString(t *testing.T) {
	q := Query{
		Post: []Atom{NewAtom("R", C("Chris"), V("x"))},
		Head: []Atom{NewAtom("R", C("Gwyneth"), V("x"))},
		Body: []Atom{NewAtom("Flights", V("x"), C("Zurich"))},
	}
	want := "{R(Chris, x)} R(Gwyneth, x) :- Flights(x, Zurich)"
	if got := q.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	empty := Query{Head: []Atom{NewAtom("C", C("1"))}}
	if !strings.Contains(empty.String(), ":- true") {
		t.Fatalf("empty body should render as true: %q", empty.String())
	}
}

func TestValidate(t *testing.T) {
	schema := map[string]int{"Flights": 2}
	good := []Query{{
		ID:   "q1",
		Post: []Atom{NewAtom("R", C("Chris"), V("x"))},
		Head: []Atom{NewAtom("R", C("Gwyneth"), V("x"))},
		Body: []Atom{NewAtom("Flights", V("x"), C("Zurich"))},
	}}
	if err := Validate(good, schema); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}

	unknownRel := []Query{{ID: "q", Body: []Atom{NewAtom("Nope", V("x"))}, Head: []Atom{NewAtom("R", V("x"))}}}
	if err := Validate(unknownRel, schema); err == nil {
		t.Fatal("body over unknown relation must fail")
	}

	badArity := []Query{{ID: "q", Body: []Atom{NewAtom("Flights", V("x"))}, Head: []Atom{NewAtom("R", V("x"))}}}
	if err := Validate(badArity, schema); err == nil {
		t.Fatal("wrong body arity must fail")
	}

	collide := []Query{{ID: "q", Head: []Atom{NewAtom("Flights", V("x"), V("y"))}}}
	if err := Validate(collide, schema); err == nil {
		t.Fatal("answer relation colliding with schema must fail")
	}

	inconsistent := []Query{
		{ID: "a", Head: []Atom{NewAtom("R", V("x"))}},
		{ID: "b", Head: []Atom{NewAtom("R", V("x"), V("y"))}},
	}
	if err := Validate(inconsistent, schema); err == nil {
		t.Fatal("inconsistent answer arity must fail")
	}
}
