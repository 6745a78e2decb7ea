package consistent_test

import (
	"math/rand"
	"strings"
	"testing"

	"entangled/internal/consistent"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

// Every query the ToEntangled translation produces must be A-consistent
// for the schema it was built from — the translation and the checker
// implement the same Definitions 7-9.
func TestQuickTranslationIsAConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	sch := workload.FlightSchema()
	for trial := 0; trial < 60; trial++ {
		users := 2 + rng.Intn(5)
		in := smallInstance(5, 3, users, 0.5, rng)
		qs := workload.RandomFlightQueries(users, 3, 0.4, rng)
		for i, q := range qs {
			if len(q.Partners) == 0 {
				continue
			}
			e, err := consistent.ToEntangled(sch, q, in)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := consistent.IsAConsistent(sch, e, 5)
			if err != nil {
				t.Fatalf("trial %d query %d: %v\n%s", trial, i, err, e)
			}
			if !ok {
				t.Fatalf("trial %d query %d: translation not A-consistent:\n%s", trial, i, e)
			}
		}
	}
}

func TestClassifyDetectsViolations(t *testing.T) {
	sch := workload.FlightSchema()
	// Flights(fid, dest, day, src, airline); coordinating on dest, day.
	base := eq.MustParseSet(`
query ok {
  post: R(y, U1)
  head: R(x, U0)
  body: Flights(x, d, t, s1, a1), Flights(y, d, t, s2, a2)
}`)[0]
	ok, err := consistent.IsAConsistent(sch, base, 5)
	if err != nil || !ok {
		t.Fatalf("base query must be A-consistent: %v %v", ok, err)
	}

	// Constraining the partner's airline breaks A-non-coordination.
	bad1 := eq.MustParseSet(`
query bad1 {
  post: R(y, U1)
  head: R(x, U0)
  body: Flights(x, d, t, s1, a1), Flights(y, d, t, s2, KLM)
}`)[0]
	ok, err = consistent.IsAConsistent(sch, bad1, 5)
	if err != nil || ok {
		t.Fatalf("constant partner airline must fail: %v %v", ok, err)
	}

	// Different destination terms break A-coordination.
	bad2 := eq.MustParseSet(`
query bad2 {
  post: R(y, U1)
  head: R(x, U0)
  body: Flights(x, d, t, s1, a1), Flights(y, d2, t, s2, a2)
}`)[0]
	ok, err = consistent.IsAConsistent(sch, bad2, 5)
	if err != nil || ok {
		t.Fatalf("split destination must fail: %v %v", ok, err)
	}

	// Sharing the source variable with the partner breaks
	// non-coordination (the Appendix B trick: coordinating on an extra
	// attribute).
	bad3 := eq.MustParseSet(`
query bad3 {
  post: R(y, U1)
  head: R(x, U0)
  body: Flights(x, d, t, s, a1), Flights(y, d, t, s, a2)
}`)[0]
	ok, err = consistent.IsAConsistent(sch, bad3, 5)
	if err != nil || ok {
		t.Fatalf("shared source variable must fail: %v %v", ok, err)
	}
}

func TestParseGeneralFormErrors(t *testing.T) {
	sch := workload.FlightSchema()
	const self, partner = `Flights(x, d, t, s, a)`, `Flights(y, d, t, s, a)`
	bad := []struct{ src, want string }{
		{`query a { head: R(x) }`, "head must be R(x, User)"},
		{`query b { head: R(X, u) }`, "head must bind"}, // constant key, variable user
		{`query b2 { head: R(x, u) }`, "head must bind"},
		{`query c { head: R(x, U0) body: Flights(K, d, t, s, a) }`, "must have a variable key"},
		{`query c2 { head: R(x, U0) body: ` + self + `, Flights(K, d, t, s, a) }`, "Flights(K, d, t, s, a) must have a variable key"},
		{`query d { head: R(x, U0) }`, "no S-atom carries the head key x"},
		{`query e { post: R(y, U1) head: R(x, U0) body: ` + self + ` }`, "postcondition key y has no S-atom"},
		{`query e2 { post: Q(y, U1) head: R(x, U0) body: ` + self + `, ` + partner + ` }`, "must be R(y, partner)"},
		{`query e3 { post: R(y) head: R(x, U0) body: ` + self + `, ` + partner + ` }`, "must be R(y, partner)"},
		{`query e4 { post: R(Y, U1) head: R(x, U0) body: ` + self + ` }`, "R(Y, U1) must have a variable key"},
	}
	for _, c := range bad {
		q := eq.MustParseSet(c.src)[0]
		_, err := consistent.ParseGeneralForm(sch, q)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseGeneralForm(%s) = %v, want an error saying %q", c.src, err, c.want)
			continue
		}
		// IsAConsistent reports the same error, not a verdict.
		if ok, err2 := consistent.IsAConsistent(sch, q, 5); ok || err2 == nil || err2.Error() != err.Error() {
			t.Errorf("IsAConsistent(%s) = %v, %v; want %v", c.src, ok, err2, err)
		}
	}
	// The general form holds, but an S-atom is shorter than Flights:
	// the checks of Definitions 7 and 8 would index past its arguments.
	short := []string{
		`query f { post: R(y, U1) head: R(x, U0) body: Flights(x, d, t, s, a), Flights(y, d) }`,
		`query g { post: R(y, U1) head: R(x, U0) body: Flights(x, d), Flights(y, d, t, s, a) }`,
	}
	for _, src := range short {
		q := eq.MustParseSet(src)[0]
		if _, err := consistent.IsAConsistent(sch, q, 5); err == nil || !strings.Contains(err.Error(), "Flights(") {
			t.Errorf("IsAConsistent should reject %s naming the atom, got %v", src, err)
		}
	}
}

// TestIsAConsistentKeyNotFirst: with the key in column 1, column 0 is
// one of the remaining attributes, which Definition 8 holds apart.
func TestIsAConsistentKeyNotFirst(t *testing.T) {
	sch := consistent.Schema{Table: "S", KeyCol: 1, CoordCols: []int{2}, OwnCols: []int{0}, Friends: "F"}
	for _, c := range []struct {
		body string
		want bool
	}{
		{`S(a, x, d), S(b, y, d)`, true},
		{`S(a, x, d), S(a, y, d)`, false}, // the partner shares column 0
	} {
		q := eq.MustParseSet(`query q { post: R(y, U1) head: R(x, U0) body: ` + c.body + ` }`)[0]
		if ok, err := consistent.IsAConsistent(sch, q, 3); err != nil || ok != c.want {
			t.Errorf("IsAConsistent(%s) = %v, %v; want %v", c.body, ok, err, c.want)
		}
	}
}
