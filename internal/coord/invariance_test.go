package coord

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

// Coordination semantics are invariant under alpha renaming: renaming
// every query's variables must not change the result's set — a tie
// goes to the least set of indices, which renaming leaves alone — and
// both witnesses must pass Definition 1.
func TestQuickAlphaRenamingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		qs := workload.RandomSafeQueries(n, 5, 0.3, 0.7, rng)
		in := newWorkloadInstance(5)
		base, err := SCCCoordinate(qs, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		renamed := make([]eq.Query, len(qs))
		for i, q := range qs {
			renamed[i] = q.Rename("odd" + strconv.Itoa(rng.Intn(50)) + "_")
		}
		other, err := SCCCoordinate(renamed, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if (base == nil) != (other == nil) || base != nil && !slices.Equal(base.Set, other.Set) {
			t.Fatalf("trial %d: alpha renaming changed the result: %v vs %v", trial, base, other)
		}
		if other != nil {
			if err := Verify(qs, base.Set, base.Values, in); err != nil {
				t.Fatal(err)
			}
			if err := Verify(renamed, other.Set, other.Values, in); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Shuffling the order in which queries are submitted must not change
// existence or the size of the maximal candidate (the candidate family
// {R(q)} is order-independent).
func TestQuickPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		qs := workload.RandomSafeQueries(n, 5, 0.3, 0.7, rng)
		in := newWorkloadInstance(5)
		base, err := SCCCoordinate(qs, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(n)
		shuffled := make([]eq.Query, n)
		for i, p := range perm {
			shuffled[i] = qs[p]
		}
		other, err := SCCCoordinate(shuffled, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if base.Size() != other.Size() {
			t.Fatalf("trial %d: permutation changed the result size: %d vs %d", trial, base.Size(), other.Size())
		}
		if other != nil {
			if err := Verify(qs, base.Set, base.Values, in); err != nil {
				t.Fatal(err)
			}
			if err := Verify(shuffled, other.Set, other.Values, in); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Coordinating sets are monotone in the database: inserting extra
// tuples can only create coordinating sets, never destroy them
// (Definition 1 is purely existential over the instance).
func TestQuickDatabaseMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		qs := workload.RandomSafeQueries(n, 5, 0.3, 0.6, rng)
		in := newWorkloadInstance(5)
		before, err := SCCCoordinate(qs, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if before != nil {
			if err := Verify(qs, before.Set, before.Values, in); err != nil {
				t.Fatal(err)
			}
		}
		// Insert tuples, including some that complete missing bodies.
		tbl, _ := in.Relation("T")
		for k := 0; k < 1+rng.Intn(4); k++ {
			if rng.Intn(2) == 0 {
				tbl.Insert(eq.Value("extra"+strconv.Itoa(k)), eq.Value("missing"+strconv.Itoa(rng.Intn(n))))
			} else {
				tbl.Insert(eq.Value("extra"+strconv.Itoa(k)), eq.Value("c"+strconv.Itoa(rng.Intn(5))))
			}
		}
		after, err := SCCCoordinate(qs, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if before != nil && after == nil {
			t.Fatalf("trial %d: inserting tuples destroyed the coordinating set", trial)
		}
		if before != nil && after.Size() < before.Size() {
			t.Fatalf("trial %d: inserting tuples shrank the best candidate: %d -> %d", trial, before.Size(), after.Size())
		}
		if after != nil {
			if err := Verify(qs, after.Set, after.Values, in); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The candidate family really is {R(q)}: every candidate the algorithm
// grounds must be closed under reachability in the coordination graph.
func TestCandidatesAreReachableSets(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		qs := workload.RandomSafeQueries(n, 5, 0.4, 1.0, rng)
		in := newWorkloadInstance(5)
		tr := &Trace{}
		if _, err := SCCCoordinate(qs, in, Options{Trace: tr}); err != nil {
			t.Fatal(err)
		}
		g := CoordinationGraph(qs)
		for _, ev := range tr.Components {
			if ev.Status != "grounded" {
				continue
			}
			inSet := map[int]bool{}
			for _, q := range ev.Set {
				inSet[q] = true
			}
			// Closed under successors is closed under reachability.
			for _, q := range ev.Set {
				for _, v := range g.Succ(q) {
					if !inSet[v] {
						t.Fatalf("trial %d: candidate %v not closed under reachability (%d reaches %d)", trial, ev.Set, q, v)
					}
				}
			}
		}
	}
}

// An empty database never coordinates queries with non-empty bodies,
// and queries with empty bodies and ground atoms coordinate over any
// instance with a matching head structure.
func TestEdgeInstances(t *testing.T) {
	in := db.NewInstance()
	in.CreateRelation("T", "key", "val")
	qs := workload.ListQueries(3, 5)
	res, err := SCCCoordinate(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("empty table: want nil, got %v", res)
	}

	// Fully ground query with an empty body coordinates even over an
	// empty database.
	ground := eq.MustParseSet(`query g { head: R(A, B) }`)
	res, err = SCCCoordinate(ground, db.NewInstance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 1 {
		t.Fatalf("ground query must coordinate: %v", res)
	}
	if err := Verify(ground, res.Set, res.Values, db.NewInstance()); err != nil {
		t.Fatal(err)
	}
}
