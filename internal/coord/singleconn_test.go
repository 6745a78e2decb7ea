package coord

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
)

func TestIsSingleConnected(t *testing.T) {
	// A chain with single posts is single-connected.
	chain := eq.MustParseSet(`
query a { post: R(UB, x) head: R(UA, x) body: T(x) }
query b { head: R(UB, y) body: T(y) }`)
	if !IsSingleConnected(chain) {
		t.Fatal("chain must be single-connected")
	}
	// Two postconditions break the first condition.
	twoPosts := eq.MustParseSet(`
query a { post: R(UB, x), R(UC, x) head: R(UA, x) body: T(x) }
query b { head: R(UB, y) body: T(y) }
query c { head: R(UC, z) body: T(z) }`)
	if IsSingleConnected(twoPosts) {
		t.Fatal("two postconditions violate single-connectedness")
	}
	// A diamond of single-post queries violates the path condition: the
	// posts of a and a2 both point at b via variables... build an
	// explicit two-paths-to-one-target shape instead: u's post unifies
	// with both v and w heads (same user name twice), both of which
	// point at z.
	diamond := eq.MustParseSet(`
query u { post: R(S, x) head: R(UU, x) body: T(x) }
query v { post: R(Z, y) head: R(S, y) body: T(y) }
query w { post: R(Z, k) head: R(S, k) body: T(k) }
query z { head: R(Z, m) body: T(m) }`)
	if IsSingleConnected(diamond) {
		t.Fatal("diamond has two simple paths from u to z")
	}
}

func TestSingleConnectedRejectsMultiPost(t *testing.T) {
	qs := eq.MustParseSet(`
query a { post: R(UB, x), R(UC, x) head: R(UA, x) body: T(x) }`)
	in := db.NewInstance()
	in.CreateRelation("T", "v")
	if _, err := SingleConnectedCoordinate(qs, in); !errors.Is(err, ErrNotSingleConnected) {
		t.Fatalf("want ErrNotSingleConnected, got %v", err)
	}
}

func TestSingleConnectedChain(t *testing.T) {
	qs := eq.MustParseSet(`
query a { post: R(UB, x) head: R(UA, x) body: T(x) }
query b { post: R(UC, y) head: R(UB, y) body: T(y) }
query c { head: R(UC, z) body: T(z) }`)
	in := db.NewInstance()
	tr := in.CreateRelation("T", "v")
	tr.Insert("1")
	res, err := SingleConnectedCoordinate(qs, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 3 {
		t.Fatalf("whole chain coordinates: %v", res)
	}
	if err := Verify(qs, res.Set, res.Values, in); err != nil {
		t.Fatal(err)
	}
}

func TestSingleConnectedCycle(t *testing.T) {
	qs := eq.MustParseSet(`
query a { post: R(UB, x) head: R(UA, x) body: T(x) }
query b { post: R(UA, y) head: R(UB, y) body: T(y) }`)
	in := db.NewInstance()
	tr := in.CreateRelation("T", "v")
	tr.Insert("1")
	res, err := SingleConnectedCoordinate(qs, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 2 {
		t.Fatalf("2-cycle coordinates: %v", res)
	}
	if err := Verify(qs, res.Set, res.Values, in); err != nil {
		t.Fatal(err)
	}
}

func TestSingleConnectedUnsafeChoice(t *testing.T) {
	// Unsafe but single-post: u's post R(S, x) unifies with both v's and
	// w's heads. v's body is unsatisfiable, so the solver must pick w.
	qs := eq.MustParseSet(`
query u { post: R(S, x) head: R(UU, x) body: T(x) }
query v { head: R(S, y) body: Missing(y) }
query w { head: R(S, k) body: T(k) }`)
	in := db.NewInstance()
	tr := in.CreateRelation("T", "v")
	tr.Insert("1")
	in.CreateRelation("Missing", "v")
	if IsSafe(qs) {
		t.Fatal("this set is intentionally unsafe")
	}
	res, err := SingleConnectedCoordinate(qs, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 2 {
		t.Fatalf("u+w coordinate: %v", res)
	}
	has := map[int]bool{}
	for _, i := range res.Set {
		has[i] = true
	}
	if !has[0] || !has[2] || has[1] {
		t.Fatalf("set should be {u, w}: %v", res.Set)
	}
	if err := Verify(qs, res.Set, res.Values, in); err != nil {
		t.Fatal(err)
	}
}

// Property: on random single-connected instances the solver agrees with
// brute force on existence and its results verify.
func TestQuickSingleConnectedMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tried := 0
	for tried < 80 {
		qs := randomSinglePostSet(rng)
		if !IsSingleConnected(qs) {
			continue
		}
		tried++
		in := db.NewInstance()
		tr := in.CreateRelation("T", "v")
		tr.Insert("1")
		tr.Insert("2")
		res, err := SingleConnectedCoordinate(qs, in)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := BruteForceMax(qs, in)
		if err != nil {
			t.Fatal(err)
		}
		if (res != nil) != (bf != nil) {
			t.Fatalf("existence mismatch on %v: solver=%v brute=%v", qs, res, bf)
		}
		if res != nil {
			if err := Verify(qs, res.Set, res.Values, in); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// randomSinglePostSet builds a random set of queries with at most one
// postcondition each, over a tiny name space so that unsafe choices and
// cycles occur.
func randomSinglePostSet(rng *rand.Rand) []eq.Query {
	n := 2 + rng.Intn(5)
	qs := make([]eq.Query, n)
	for i := 0; i < n; i++ {
		u := eq.Value(string(rune('A' + i)))
		q := eq.Query{
			ID:   string(u),
			Head: []eq.Atom{eq.NewAtom("R", eq.C(u), eq.V("x"))},
			Body: []eq.Atom{eq.NewAtom("T", eq.V("x"))},
		}
		if rng.Intn(3) > 0 {
			target := eq.Value(string(rune('A' + rng.Intn(n))))
			q.Post = []eq.Atom{eq.NewAtom("R", eq.C(target), eq.V("y"))}
		}
		qs[i] = q
	}
	return qs
}

// TestIsSingleConnectedChecksPathsIntoTheFirstQuery: two simple paths
// into query 0 (q2 to q0 directly and through q1) make a set that is not
// single-connected.
func TestIsSingleConnectedChecksPathsIntoTheFirstQuery(t *testing.T) {
	qs := eq.MustParseSet(`
query q0 { head: R(A) }
query q1 { post: R(A)  head: R(B) }
query q2 { post: R(x)  head: S(C) }`)
	if IsSingleConnected(qs) {
		t.Fatal("two paths from q2 to q0, yet single-connected")
	}
}

// TestSingleConnectedTriesEveryHead: a's postcondition unifies with both
// of b's heads; the chain through the first fails to ground, and the
// second must be tried as an extension, not mistaken for a cycle back
// to b.
func TestSingleConnectedTriesEveryHead(t *testing.T) {
	qs := eq.MustParseSet(`
query a { post: R(x)  head: S(A)  body: T(x) }
query b { head: R(B1), R(B2)  body: T(B2) }`)
	in := db.NewInstance()
	in.CreateRelation("T", "v").Insert("B2")
	if !IsSingleConnected(qs) {
		t.Fatal("fixture is not single-connected")
	}
	res, err := SingleConnectedCoordinate(qs, in)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || !slices.Equal(res.Set, []int{0, 1}) {
		t.Fatalf("SingleConnectedCoordinate = %v, want {a, b}", res)
	}
	if err := Verify(qs, res.Set, res.Values, in); err != nil {
		t.Fatal(err)
	}
	// A cycle, where the store is first asked deep in the chain.
	cycle := eq.MustParseSet(`
query a { post: R(B)  head: R(A) }
query b { post: R(A)  head: R(B) }`)
	for _, qs := range [][]eq.Query{qs, cycle} {
		if _, err := SingleConnectedCoordinate(qs, &downStore{Store: in, down: true}); !errors.Is(err, errDown) {
			t.Fatalf("on a store that is down: %v, want %v", err, errDown)
		}
	}
}

// TestSingleConnectedSkipsAClashingProvider: a provider edge whose full
// unifier clashes (R(x, x) against R(C, D)) extends no chain.
func TestSingleConnectedSkipsAClashingProvider(t *testing.T) {
	qs := eq.MustParseSet(`
query a { post: R(x, x)  head: S(A)  body: T(x) }
query b { head: R(C, D)  body: T(D) }`)
	in := db.NewInstance()
	tr := in.CreateRelation("T", "v")
	tr.Insert("C")
	tr.Insert("D")
	res, err := SingleConnectedCoordinate(qs, in)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || !slices.Equal(res.Set, []int{1}) {
		t.Fatalf("SingleConnectedCoordinate = %v, want the set {b}", res)
	}
}

// TestSingleConnectedWitnessIsTheWinners: the largest set is found by
// the first start and later starts ask about other sets; the witness is
// still read off the winner's combined body.
func TestSingleConnectedWitnessIsTheWinners(t *testing.T) {
	qs := eq.MustParseSet(`
query a { post: R(B)  head: R(A)  body: T(x) }
query b { head: R(B)  body: T(y) }
query c { head: R(C)  body: U(z) }`)
	in := db.NewInstance()
	in.CreateRelation("T", "v").Insert("t")
	in.CreateRelation("U", "v")
	in.CreateRelation("V", "v").Insert("a") // the least value, in no body
	res, err := SingleConnectedCoordinate(qs, in)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || !slices.Equal(res.Set, []int{0, 1}) {
		t.Fatalf("SingleConnectedCoordinate = %v, want {a, b}", res)
	}
	if err := Verify(qs, res.Set, res.Values, in); err != nil {
		t.Fatal(err)
	}
}
