package eq

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatParseable(t *testing.T) {
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
	text := FormatSet(qs)
	back, err := ParseSet(text)
	if err != nil {
		t.Fatalf("Format output must re-parse: %v\n%s", err, text)
	}
	if len(back) != len(qs) {
		t.Fatalf("query count: %d", len(back))
	}
	for i := range qs {
		if qs[i].String() != back[i].String() || qs[i].ID != back[i].ID {
			t.Fatalf("round trip broke query %d:\n%s\n%s", i, qs[i], back[i])
		}
	}
}

func TestFormatEmptyID(t *testing.T) {
	q := Query{Head: []Atom{NewAtom("R", V("x"))}}
	text := Format(q)
	if !strings.HasPrefix(text, "query q {") {
		t.Fatalf("empty id should default: %s", text)
	}
	if _, err := Parse(text); err != nil {
		t.Fatal(err)
	}
}

func TestFormatQuotesLowercaseConstants(t *testing.T) {
	q := Query{ID: "x", Head: []Atom{NewAtom("R", C("lower"), C("two words"))}}
	back, err := Parse(Format(q))
	if err != nil {
		t.Fatal(err)
	}
	if back.Head[0].Args[0] != C("lower") || back.Head[0].Args[1] != C("two words") {
		t.Fatalf("constants mangled: %v", back.Head[0])
	}
}

// Property: Format then Parse is the identity on random queries.
func TestQuickFormatParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	f := func() bool {
		q := randomQuery(rng)
		back, err := Parse(Format(q))
		if err != nil {
			return false
		}
		return back.String() == q.String() && back.ID == q.ID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Format renders the query in the textual file format accepted by Parse,
// so Format and Parse are mutually inverse (up to whitespace):
//
//	query q1 {
//	  post: R(Chris, x)
//	  head: R(Gwyneth, x)
//	  body: Flights(x, Zurich)
//	}
func Format(q Query) string {
	var sb strings.Builder
	sb.WriteString("query ")
	if q.ID == "" {
		sb.WriteString("q")
	} else {
		sb.WriteString(q.ID)
	}
	sb.WriteString(" {\n")
	section := func(name string, as []Atom) {
		if len(as) == 0 {
			return
		}
		sb.WriteString("  ")
		sb.WriteString(name)
		sb.WriteString(": ")
		sb.WriteString(JoinAtoms(as))
		sb.WriteString("\n")
	}
	section("post", q.Post)
	section("head", q.Head)
	section("body", q.Body)
	sb.WriteString("}\n")
	return sb.String()
}

// FormatSet renders a whole query set in the file format.
func FormatSet(qs []Query) string {
	var sb strings.Builder
	for i, q := range qs {
		if i > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(Format(q))
	}
	return sb.String()
}
