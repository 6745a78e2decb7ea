package coord

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/graph"
	"entangled/internal/workload"
)

// newWorkloadInstance builds the small table the randomized workloads
// query.
func newWorkloadInstance(rows int) *db.Instance {
	in := db.NewInstance()
	workload.UserTable(in, rows)
	return in
}

// stranded gives every query of qs whose body in cannot satisfy a
// postcondition no head provides for, so that the §6.1 provider cascade
// prunes what the body probe once pruned: the same queries in the same
// condensation, hence the same walk, the same searches and the same
// answer, reached without asking the database about a body.
func stranded(qs []eq.Query, in *db.Instance) []eq.Query {
	out := slices.Clone(qs)
	for i, q := range out {
		if ok, err := in.Satisfiable(q.Body); err == nil && !ok {
			out[i].Post = append(slices.Clone(q.Post), eq.NewAtom("R", eq.C("Nobody"), eq.V("stranded")))
		}
	}
	return out
}

// Property: on safe AND unique sets, the Gupta baseline and the SCC
// algorithm agree on existence, and when a set exists both return the
// whole input (uniqueness forces all-or-nothing coordination).
func TestQuickGuptaAgreesOnUniqueSets(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checked := 0
	for checked < 60 {
		n := 2 + rng.Intn(5)
		// A random cycle permutation yields a safe, unique structure.
		qs := workload.GraphQueries(cyclePerm(n, rng), 5)
		if !IsSafe(qs) || !IsUnique(qs) {
			t.Fatal("cycle workload must be safe and unique")
		}
		in := newWorkloadInstance(5)
		g, err := GuptaCoordinate(qs, in)
		if err != nil {
			t.Fatal(err)
		}
		s, err := SCCCoordinate(qs, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if (g == nil) != (s == nil) {
			t.Fatalf("existence mismatch: gupta=%v scc=%v", g, s)
		}
		if g != nil {
			if g.Size() != n || s.Size() != n {
				t.Fatalf("unique sets coordinate all-or-nothing: gupta=%d scc=%d n=%d", g.Size(), s.Size(), n)
			}
			if err := Verify(qs, g.Set, g.Values, in); err != nil {
				t.Fatal(err)
			}
			if err := Verify(qs, s.Set, s.Values, in); err != nil {
				t.Fatal(err)
			}
		}
		checked++
	}
}

// cyclePerm builds a directed cycle over a random permutation of n
// nodes.
func cyclePerm(n int, rng *rand.Rand) *graph.Digraph {
	perm := rng.Perm(n)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(perm[i], perm[(i+1)%n])
	}
	return g
}

// Property: the chain workload of Figure 4 always coordinates in full
// (bodies all satisfiable), and the candidate for query 0 covers the
// whole chain.
func TestListWorkloadCoordinatesFully(t *testing.T) {
	for _, n := range []int{1, 2, 5, 17} {
		in := newWorkloadInstance(50)
		qs := workload.ListQueries(n, 50)
		res, err := SCCCoordinate(qs, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Size() != n {
			t.Fatalf("n=%d: size=%d", n, res.Size())
		}
		if err := Verify(qs, res.Set, res.Values, in); err != nil {
			t.Fatal(err)
		}
		// One grounding per SCC, and a list is n of them.
		if res.DBQueries != int64(n) {
			t.Fatalf("n=%d: DBQueries=%d, want %d", n, res.DBQueries, n)
		}
	}
}

// Property: scale-free workloads always coordinate in full as well (all
// bodies satisfiable, all postconditions providable).
func TestScaleFreeWorkloadCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{5, 20, 60} {
		in := newWorkloadInstance(100)
		qs := workload.ScaleFreeQueries(n, 2, 100, rng)
		if !IsSafe(qs) {
			t.Fatal("scale-free workload must be safe")
		}
		res, err := SCCCoordinate(qs, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			t.Fatalf("n=%d: no coordinating set", n)
		}
		if err := Verify(qs, res.Set, res.Values, in); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBruteForceTooManyQueries checks the typed-error contract of both
// oracles on an oversized input: a refusal, not 2^21 subsets.
func TestBruteForceTooManyQueries(t *testing.T) {
	const rows = 500
	in := newWorkloadInstance(rows)
	qs := workload.ListQueries(MaxBruteQueries+1, rows)
	if _, err := BruteForceExists(qs, in); !errors.Is(err, ErrTooManyQueries) {
		t.Fatalf("exists: err = %v, want ErrTooManyQueries", err)
	}
	if _, err := BruteForceMax(qs, in); !errors.Is(err, ErrTooManyQueries) {
		t.Fatalf("max: err = %v, want ErrTooManyQueries", err)
	}
}
