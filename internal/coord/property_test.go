package coord

import (
	"errors"
	"math/rand"
	"reflect"
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
		// One grounding: the whole list is the largest set, searched
		// first.
		if res.DBQueries != 1 {
			t.Fatalf("n=%d: DBQueries=%d, want 1", n, res.DBQueries)
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

// TestRankWalkServesTheFamilysFirst holds the lemma the walk rests on.
// Grounding is inherited downward: if c reaches d, R(d) ⊆ R(c), and a
// tuple that grounds R(c) grounds R(d). So the first set that grounds,
// searched largest first and of equal sizes least sorted first, is the
// family's first. On 3,000 random-safe, scale-free and list sets, a
// tenth of whose bodies match nothing, over 1-, 2- and 8-shard stores,
// SCCCoordinate's Set and Values equal AllCandidates' first candidate's,
// both pass Definition 1, and the walk asks at most one query per
// unpruned component, and no more than the reference rank walk that
// learns no dead query from a failed search (blindRankOrder). Over all
// of them it asks fewer than the family walk, and the blind walk asks
// 19,071, what the rank walk asked before it learnt dead queries.
func TestRankWalkServesTheFamilysFirst(t *testing.T) {
	const rows, draws = 32, 3000
	rng := rand.New(rand.NewSource(49))
	stores := []db.Store{workload.NewStore(1, rows, 0), workload.NewStore(2, rows, 0), workload.NewStore(8, rows, 0)}
	var walked, blind, family int64
	ties, none := 0, 0
	for i := range draws {
		n := 2 + rng.Intn(30)
		var qs []eq.Query
		switch i % 3 {
		case 0:
			qs = workload.RandomSafeQueries(n, rows, 0.02+0.2*rng.Float64(), 0.6+0.4*rng.Float64(), rng)
		case 1:
			qs = workload.ScaleFreeQueries(n, 1+rng.Intn(2), rows, rng)
		case 2:
			qs = workload.ListQueries(n, rows)
		}
		for j := range qs {
			if rng.Float64() < 0.1 {
				qs[j].Body = []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("missing"))}
			}
		}
		store := stores[i/3%3]
		m, tr := db.NewMeter(store), &Trace{}
		got, err := SCCCoordinate(qs, m, Options{Trace: tr})
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		fm := db.NewMeter(store)
		cands, err := AllCandidates(qs, fm, Options{})
		if err != nil {
			t.Fatalf("draw %d: AllCandidates: %v", i, err)
		}
		bm := db.NewMeter(store)
		if _, err := oracleChoose(qs, bm, Options{}, false, blindRankOrder); err != nil {
			t.Fatalf("draw %d: the blind walk: %v", i, err)
		}
		if m.QueriesIssued() > bm.QueriesIssued() {
			t.Fatalf("draw %d: the walk asked %d queries, the walk that learns no dead query %d", i, m.QueriesIssued(), bm.QueriesIssued())
		}
		walked, blind, family = walked+m.QueriesIssued(), blind+bm.QueriesIssued(), family+fm.QueriesIssued()
		unpruned := 0
		for _, ev := range tr.Components {
			if ev.Status != "pruned" {
				unpruned++
			}
		}
		if asked := m.QueriesIssued(); asked > int64(unpruned) || got != nil && got.DBQueries != asked {
			t.Fatalf("draw %d: the walk asked %d queries of %d unpruned components, billing %v", i, asked, unpruned, got)
		}
		if got == nil {
			if len(cands) != 0 {
				t.Fatalf("draw %d: no team, but AllCandidates found %v", i, cands[0].Set)
			}
			none++
			continue
		}
		if len(cands) == 0 || !reflect.DeepEqual(got.Set, cands[0].Set) || !reflect.DeepEqual(got.Values, cands[0].Values) {
			t.Fatalf("draw %d: SCCCoordinate returned %+v, AllCandidates' first is %+v", i, got, cands)
		}
		for _, values := range []map[int]map[string]eq.Value{got.Values, cands[0].Values} {
			if err := Verify(qs, got.Set, values, store); err != nil {
				t.Fatalf("draw %d: %v", i, err)
			}
		}
		if len(cands) > 1 && len(cands[1].Set) == len(got.Set) {
			ties++
		}
	}
	if ties == 0 || none == 0 {
		t.Fatalf("%d draws with a tie for the largest set, %d with no team: both must occur", ties, none)
	}
	if walked >= family || blind != 19071 {
		t.Fatalf("the rank walk asked %d queries in all, the blind walk %d (want 19,071), the family walk %d", walked, blind, family)
	}
	t.Logf("%d draws, %d with a tie for the largest set, %d with no team: the rank walk asked %d queries, the walk that learns no dead query %d, the family walk %d", draws, ties, none, walked, blind, family)
}

// TestRankWalkTradeOff puts on record what the rank order costs against
// the family walk's bottom-up one. The Figure-4 list of 100 grounds
// with one query where the family walk asks 100. Figure 1 asks 3 where
// it asks 2: qW's and qJ's sets, the two larger, find no tuple before
// {qC, qG}'s grounds. The list of 100 whose last body is one atom no
// row satisfies (deadEnd) asks 1, as the family walk does: the database
// names that atom, and every other set holds its query ("dead member").
// The list whose last body joins to a dead atom the database cannot
// name (workload.JoinedDeadEnd) still asks 100 where the family walk
// asks 1: its sink fails, and
// every set holds the sink. No order beats the other on every input.
// An atom empty only under the unifier — its variable bound to a
// constant, or two of its variables to one another — is named but not
// learnt from: the smaller set without the binding grounds. The bound
// is the paper's either way: at most one query per unpruned component.
func TestRankWalkTradeOff(t *testing.T) {
	const rows = 100
	fq, fin := flightHotel()
	in := newWorkloadInstance(rows)
	pinned := db.NewInstance()
	pinned.CreateRelation("T", "v").Insert("1")
	pinned.CreateRelation("S", "k", "v").Insert("B", "V")
	for _, c := range []struct {
		name         string
		qs           []eq.Query
		store        db.Store
		rank, family int64
		team         int
	}{
		{"Figure-4 list of 100", workload.ListQueries(100, rows), in, 1, 100, 100},
		{"Figure 1", fq, fin, 3, 2, 2},
		{"dead-end list of 100", deadEnd(workload.ListQueries(100, rows)), in, 1, 1, 0},
		{"joined dead-end list of 100", workload.JoinedDeadEnd(workload.ListQueries(100, rows)), in, 100, 1, 0},
		{"empty under a bound constant", eq.MustParseSet(`
query p { post: R(UQ, A) head: R(UP, u) body: T(u) }
query q { head: R(UQ, x) body: S(x, V) }`), pinned, 2, 2, 1},
		{"empty under merged variables", eq.MustParseSet(`
query p { post: R(UQ, a, a) head: R(UP, u) body: T(u) }
query q { head: R(UQ, x, y) body: S(x, y) }`), pinned, 2, 2, 1},
	} {
		m, fm := db.NewMeter(c.store), db.NewMeter(c.store)
		res, err := SCCCoordinate(c.qs, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cands, err := AllCandidates(c.qs, fm, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m.QueriesIssued() != c.rank || fm.QueriesIssued() != c.family || res.Size() != c.team || len(cands) > 0 && len(cands[0].Set) != c.team {
			t.Errorf("%s: the rank walk asked %d and found a team of %d, the family walk asked %d and found %d sets; want %d, %d and %d",
				c.name, m.QueriesIssued(), res.Size(), fm.QueriesIssued(), len(cands), c.rank, c.team, c.family)
		}
	}
}

// deadEnd gives a list's last query a body of one atom no row matches,
// in place, and returns the list: every set holds the query, and the
// first search that fails names the atom (db.Binding.Empty).
func deadEnd(qs []eq.Query) []eq.Query {
	qs[len(qs)-1].Body = []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("none"))}
	return qs
}
