package eq

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	q := MustParseSet(`
query a {
  post: R(Chris, foo)
  head: R(Gwyneth, foo)
  body: Flights(foo, Zurich), Hotels(bar, baz)
}`)[0]
	n := q.Normalize()
	if n.Post[0].Args[1] != V("v0") {
		t.Fatalf("first variable should become v0: %v", n.Post[0])
	}
	if n.Body[1].Args[0] != V("v1") || n.Body[1].Args[1] != V("v2") {
		t.Fatalf("body vars: %v", n.Body[1])
	}
	// Same variable keeps the same normalized name everywhere.
	if n.Head[0].Args[1] != V("v0") || n.Body[0].Args[0] != V("v0") {
		t.Fatalf("foo must normalize consistently: %v %v", n.Head[0], n.Body[0])
	}
	// The original is untouched.
	if q.Post[0].Args[1] != V("foo") {
		t.Fatal("Normalize must not mutate")
	}
}

func TestAlphaEqual(t *testing.T) {
	a := MustParseSet(`query a { post: R(C, x) head: R(G, x) body: F(x, Z) }`)[0]
	b := MustParseSet(`query b { post: R(C, banana) head: R(G, banana) body: F(banana, Z) }`)[0]
	if !AlphaEqual(a, b) {
		t.Fatal("renamed copies are alpha-equal")
	}
	c := MustParseSet(`query c { post: R(C, x) head: R(G, y) body: F(x, Z) }`)[0]
	if AlphaEqual(a, c) {
		t.Fatal("breaking the x sharing changes the query")
	}
	d := MustParseSet(`query d { post: R(C, x) head: R(G, x) body: F(x, W) }`)[0]
	if AlphaEqual(a, d) {
		t.Fatal("different constants differ")
	}
}

// Property: every query is alpha-equal to any consistent renaming of
// itself, and Normalize is idempotent.
func TestQuickAlphaInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	f := func() bool {
		q := randomQuery(rng)
		renamed := q.Rename("zz" + strconv.Itoa(rng.Intn(100)) + ".")
		if !AlphaEqual(q, renamed) {
			return false
		}
		n := q.Normalize()
		return n.String() == n.Normalize().String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Normalize returns an alpha-renamed copy of q in which variables are
// numbered v0, v1, ... in order of first appearance (posts, then heads,
// then body). Two queries are alpha-equivalent — equal up to a
// consistent renaming of variables — exactly when their normal forms
// are syntactically identical, which AlphaEqual exploits.
func (q Query) Normalize() Query {
	cp := q.Clone()
	names := map[string]string{}
	ren := func(as []Atom) {
		for i := range as {
			for j := range as[i].Args {
				t := as[i].Args[j]
				if !t.IsVar() {
					continue
				}
				n, ok := names[t.Name]
				if !ok {
					n = "v" + strconv.Itoa(len(names))
					names[t.Name] = n
				}
				as[i].Args[j].Name = n
			}
		}
	}
	ren(cp.Post)
	ren(cp.Head)
	ren(cp.Body)
	return cp
}

// AlphaEqual reports whether two queries are equal up to a consistent
// renaming of variables (ignoring IDs).
func AlphaEqual(a, b Query) bool {
	na, nb := a.Normalize(), b.Normalize()
	return atomsEqual(na.Post, nb.Post) && atomsEqual(na.Head, nb.Head) && atomsEqual(na.Body, nb.Body)
}

func atomsEqual(a, b []Atom) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
