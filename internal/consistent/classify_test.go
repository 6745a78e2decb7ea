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
	bad := []string{
		`query a { head: R(x) }`,                                                 // head arity
		`query b { head: R(X, u) }`,                                              // constant key / variable user
		`query c { head: R(x, U0) body: Flights(K, d, t, s, a) }`,                // constant S key
		`query d { head: R(x, U0) }`,                                             // no self atom
		`query e { post: R(y, U1) head: R(x, U0) body: Flights(x, d, t, s, a) }`, // post without S-atom
	}
	for _, src := range bad {
		q := eq.MustParseSet(src)[0]
		if _, err := consistent.ParseGeneralForm(sch, q); err == nil {
			t.Errorf("ParseGeneralForm should reject %s", src)
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
