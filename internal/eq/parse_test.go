package eq

import (
	"strings"
	"testing"
)

func TestParseSingleQuery(t *testing.T) {
	src := `
# Gwyneth wants to fly with Chris.
query q1 {
  post: R(Chris, x)
  head: R(Gwyneth, x)
  body: Flights(x, Zurich)
}`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != "q1" {
		t.Fatalf("ID = %q", q.ID)
	}
	if len(q.Post) != 1 || len(q.Head) != 1 || len(q.Body) != 1 {
		t.Fatalf("sections parsed wrong: %v", q)
	}
	if q.Post[0].String() != "R(Chris, x)" {
		t.Fatalf("post = %s", q.Post[0])
	}
	if q.Body[0].Args[0] != V("x") {
		t.Fatalf("x should be a variable: %v", q.Body[0])
	}
	if q.Body[0].Args[1] != C("Zurich") {
		t.Fatalf("Zurich should be a constant: %v", q.Body[0])
	}
}

func TestParseSetFlightHotel(t *testing.T) {
	// The Figure 1 query set of the paper (flight-hotel example, §2.2).
	src := `
query qC {
  post: R(G, x1)
  head: R(C, x1), Q(C, x2)
  body: F(x1, x), H(x2, x)
}
query qG {
  post: R(C, y1), Q(C, y2)
  head: R(G, y1), Q(G, y2)
  body: F(y1, P), H(y2, P)
}
query qJ {
  post: R(C, z1), R(G, z1)
  head: R(J, z1), Q(J, z2)
  body: F(z1, A), H(z2, A)
}
query qW {
  post: R(C, w1), Q(J, w2)
  head: R(W, w1), Q(W, w2)
  body: F(w1, M), H(w2, M)
}`
	qs, err := ParseSet(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 4 {
		t.Fatalf("got %d queries", len(qs))
	}
	if qs[3].ID != "qW" || len(qs[3].Post) != 2 {
		t.Fatalf("qW parsed wrong: %v", qs[3])
	}
}

func TestParseQuotedAndNumeric(t *testing.T) {
	q, err := Parse(`query q { head: R('lower case', 101, x) }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Head[0].Args[0] != C("lower case") {
		t.Fatalf("quoted constant: %v", q.Head[0].Args[0])
	}
	if q.Head[0].Args[1] != C("101") {
		t.Fatalf("numeric constant: %v", q.Head[0].Args[1])
	}
	if q.Head[0].Args[2] != V("x") {
		t.Fatalf("variable: %v", q.Head[0].Args[2])
	}
}

func TestParseEmptySectionsAndTrue(t *testing.T) {
	q, err := Parse(`query q { post: R(A, x) head: S(B, x) body: true }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Body) != 0 {
		t.Fatalf("body should be empty: %v", q.Body)
	}
	q2, err := Parse(`query q { head: S(B, x) }`)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Post != nil || q2.Body != nil {
		t.Fatalf("omitted sections should be nil: %v", q2)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"query",
		"query q",
		"query q { unknown: R(x) }",
		"query q { head: R(x }",
		"notquery q { }",
	}
	for _, src := range bad {
		if _, err := ParseSet(src); err == nil {
			t.Errorf("ParseSet(%q) should fail", src)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	// String output of a parsed query re-parses to the same thing.
	src := `query q { post: R(Chris, x) head: R(Gwyneth, x) body: Flights(x, Zurich), Hotels(y, 'nice place') }`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rendered := "query q {\n post: " + atomsStr(q.Post) + "\n head: " + atomsStr(q.Head) + "\n body: " + atomsStr(q.Body) + "\n}"
	q2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, rendered)
	}
	if q.String() != q2.String() {
		t.Fatalf("round trip mismatch:\n%s\n%s", q, q2)
	}
}

func atomsStr(as []Atom) string {
	if len(as) == 0 {
		return "true"
	}
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

func TestMustParseSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseSet should panic on bad input")
		}
	}()
	MustParseSet("broken {")
}
