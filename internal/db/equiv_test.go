package db_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"entangled/internal/db"
	"entangled/internal/db/dbtest"
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// equivStores is one trial's family of stores holding identical tuples:
// a plain instance plus hash-partitioned copies at K=1,2,8.
type equivStores struct {
	plain   *db.Instance
	sharded map[int]*db.ShardedInstance
}

// storePair is one store of the family beside the reference evaluator
// reading the same tuples through db's exported API.
type storePair struct {
	compiled db.Store
	oracle   *dbtest.Oracle
}

func (es *equivStores) all() map[string]storePair {
	out := map[string]storePair{"plain": {es.plain, dbtest.New(es.plain)}}
	for k, sh := range es.sharded {
		out[fmt.Sprintf("k=%d", k)] = storePair{sh, dbtest.NewSharded(sh)}
	}
	return out
}

// buildEquivStores creates random relations A/2, B/1, C/3 with random
// small-domain tuples, random per-relation hash columns for the sharded
// copies, and random indexes. It still draws the coin that once chose
// whether indexes were used, so the seeded trials stay as they were.
func buildEquivStores(rng *rand.Rand) *equivStores {
	type relSpec struct {
		name  string
		arity int
		rows  int
	}
	specs := []relSpec{
		{"A", 2, 1 + rng.Intn(10)},
		{"B", 1, 1 + rng.Intn(5)},
		{"C", 3, 1 + rng.Intn(8)},
	}
	val := func() eq.Value { return eq.Value(strconv.Itoa(rng.Intn(5))) }
	tuples := map[string][][]eq.Value{}
	hashCols := map[string]int{}
	for _, sp := range specs {
		hashCols[sp.name] = rng.Intn(sp.arity)
		for r := 0; r < sp.rows; r++ {
			row := make([]eq.Value, sp.arity)
			for c := range row {
				row[c] = val()
			}
			tuples[sp.name] = append(tuples[sp.name], row)
		}
	}
	indexed := map[string][]int{}
	for _, sp := range specs {
		for c := 0; c < sp.arity; c++ {
			if rng.Intn(3) == 0 {
				indexed[sp.name] = append(indexed[sp.name], c)
			}
		}
	}
	_ = rng.Intn(2)

	attrs := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "c" + strconv.Itoa(i)
		}
		return out
	}

	es := &equivStores{plain: db.NewInstance(), sharded: map[int]*db.ShardedInstance{}}
	for _, sp := range specs {
		r := es.plain.CreateRelation(sp.name, attrs(sp.arity)...)
		for _, row := range tuples[sp.name] {
			r.Insert(row...)
		}
		for _, c := range indexed[sp.name] {
			r.BuildIndex(c)
		}
	}
	for _, k := range []int{1, 2, 8} {
		sh := db.NewShardedInstance(k)
		for _, sp := range specs {
			r := sh.CreateRelation(sp.name, hashCols[sp.name], attrs(sp.arity)...)
			for _, row := range tuples[sp.name] {
				r.Insert(row...)
			}
			for _, c := range indexed[sp.name] {
				r.BuildIndex(c)
			}
		}
		es.sharded[k] = sh
	}
	return es
}

// randomBody builds a random conjunctive body over the trial schema:
// 1-3 atoms, variables from {x,y,z} (repeats allowed) and small-domain
// constants.
func randomBody(rng *rand.Rand) []eq.Atom {
	arities := map[string]int{"A": 2, "B": 1, "C": 3}
	names := []string{"A", "B", "C"}
	term := func() eq.Term {
		if rng.Intn(2) == 0 {
			return eq.V(string(rune('x' + rng.Intn(3))))
		}
		return eq.C(eq.Value(strconv.Itoa(rng.Intn(5))))
	}
	var body []eq.Atom
	for i := 0; i < 1+rng.Intn(3); i++ {
		n := names[rng.Intn(len(names))]
		args := make([]eq.Term, arities[n])
		for j := range args {
			args[j] = term()
		}
		body = append(body, eq.NewAtom(n, args...))
	}
	return body
}

// randomSubst builds a random substitution over the body's variable
// space, x, y and z numbered 0, 1 and 2: some variables bound to
// constants, some unified with each other.
func randomSubst(rng *rand.Rand) *unify.Subst {
	s := unify.New()
	s.Reset(3)
	for v := range int32(3) {
		switch rng.Intn(3) {
		case 0:
			_ = s.Bind(v, eq.Value(strconv.Itoa(rng.Intn(5))))
		case 1:
			_ = s.Union(v, int32(rng.Intn(3)))
		}
	}
	return s
}

// over makes body's arguments s's term table, x, y and z being s's
// variables 0, 1 and 2, and returns s.
func over(s *unify.Subst, body []eq.Atom) *unify.Subst {
	var terms []int32
	for _, a := range body {
		for _, t := range a.Args {
			id := int32(-1)
			if t.IsVar() {
				id = int32(t.Name[0] - 'x')
			}
			terms = append(terms, id)
		}
	}
	s.SetTerms(terms)
	return s
}

// frame renders a binding slot by slot: two bindings of one body — or
// of a body and its resolution under a substitution, whose variables
// are the classes, by first occurrence — agree when their frames do.
func frame(b db.Binding) string {
	var sb strings.Builder
	for i := range b.Len() {
		fmt.Fprintf(&sb, "%s;", b.At(i))
	}
	return sb.String()
}

// bindingMultiset renders a result list order-independently.
func bindingMultiset(res []db.Binding) []string {
	out := make([]string, 0, len(res))
	for _, b := range res {
		out = append(out, frame(b))
	}
	sort.Strings(out)
	return out
}

func sameMultiset(t *testing.T, ctx string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: answer multisets differ: %d vs %d answers\n%v\n%v", ctx, len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: answer multisets differ at %d: %q vs %q", ctx, i, a[i], b[i])
		}
	}
}

// TestQuickCompiledMatchesSeed is the compiled-evaluator equivalence
// property test: across random schemas, random bodies, random
// substitutions, shard counts K=1,2,8 and indexes on/off, compiled
// plans return the same multiset of bindings — slot for slot — the
// same ok, and the same query counts (db-level DBQueries) as the seed's
// backtracking evaluator, kept as dbtest.Oracle, and the sharded stores
// agree with the plain one. Which witness a choose-1 call picks is the
// join order's business, so Solve's and SolveUnder's bindings are held
// to being one of the oracle's answers to the same (resolved) body.
func TestQuickCompiledMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 120; trial++ {
		es := buildEquivStores(rng)
		var bodies [][]eq.Atom
		for i := 0; i < 5; i++ {
			bodies = append(bodies, randomBody(rng))
		}
		bodies = append(bodies, nil) // empty body: vacuously satisfiable
		subst := randomSubst(rng)

		type answers struct {
			all, underAll []string // every answer to the body, and to the body under subst
			one, under    string   // the choose-1 witnesses, when found
			solveOK       bool
			sat           bool
			underOK       bool
			queries       int64
		}
		collect := func(st db.Store, body []eq.Atom) answers {
			start := st.QueriesIssued()
			res, err := st.SolveAll(body, 0)
			if err != nil {
				t.Fatalf("trial %d: SolveAll: %v", trial, err)
			}
			one, ok, err := st.Solve(body)
			if err != nil {
				t.Fatalf("trial %d: Solve: %v", trial, err)
			}
			sat, err := st.Satisfiable(body)
			if err != nil {
				t.Fatalf("trial %d: Satisfiable: %v", trial, err)
			}
			under, underOK, err := st.SolveUnder(body, over(subst, body))
			if err != nil {
				t.Fatalf("trial %d: SolveUnder: %v", trial, err)
			}
			underAll, err := st.SolveAll(dbtest.Resolve(body, subst), 0)
			if err != nil {
				t.Fatalf("trial %d: SolveAll under: %v", trial, err)
			}
			return answers{
				all:      bindingMultiset(res),
				underAll: bindingMultiset(underAll),
				one:      frame(one),
				under:    frame(under),
				solveOK:  ok,
				sat:      sat,
				underOK:  underOK,
				queries:  st.QueriesIssued() - start,
			}
		}

		for bi, body := range bodies {
			var plainCompiled answers
			for name, st := range es.all() {
				compiled := collect(st.compiled, body)
				seed := collect(st.oracle, body)

				ctx := fmt.Sprintf("trial %d body %d store %s", trial, bi, name)
				sameMultiset(t, ctx, compiled.all, seed.all)
				sameMultiset(t, ctx+" under", compiled.underAll, seed.underAll)
				if compiled.solveOK != seed.solveOK || compiled.sat != seed.sat || compiled.underOK != seed.underOK {
					t.Fatalf("%s: ok flags differ: compiled %+v seed %+v", ctx, compiled, seed)
				}
				if compiled.solveOK && !slices.Contains(seed.all, compiled.one) {
					t.Fatalf("%s: Solve bound %q, not one of the oracle's %q", ctx, compiled.one, seed.all)
				}
				if compiled.underOK && !slices.Contains(seed.underAll, compiled.under) {
					t.Fatalf("%s: SolveUnder bound %q, not one of the oracle's %q", ctx, compiled.under, seed.underAll)
				}
				if compiled.queries != seed.queries {
					t.Fatalf("%s: DBQueries differ: compiled %d seed %d", ctx, compiled.queries, seed.queries)
				}
				if name == "plain" {
					plainCompiled = compiled
				}
			}
			// Sharded stores must agree with the plain instance.
			for k, sh := range es.sharded {
				got := collect(sh, body)
				ctx := fmt.Sprintf("trial %d body %d k=%d vs plain", trial, bi, k)
				sameMultiset(t, ctx, got.all, plainCompiled.all)
				if got.solveOK != plainCompiled.solveOK || got.sat != plainCompiled.sat || got.underOK != plainCompiled.underOK {
					t.Fatalf("%s: ok flags differ", ctx)
				}
			}
		}
		// Domain is the same constants, sorted, on every store of the
		// family and the oracle; ResetCounters zeroes both counters.
		for name, st := range es.all() {
			if got, want := st.compiled.Domain(), st.oracle.Domain(); !slices.Equal(got, want) {
				t.Fatalf("trial %d store %s: Domain %v, oracle %v", trial, name, got, want)
			}
			for _, s := range []db.Store{st.compiled, st.oracle} {
				if _, err := s.Satisfiable(bodies[0]); err != nil || s.QueriesIssued() == 0 {
					t.Fatalf("trial %d store %s: err %v, %d queries issued", trial, name, err, s.QueriesIssued())
				}
				s.ResetCounters()
				if n := s.QueriesIssued(); n != 0 {
					t.Fatalf("trial %d store %s: %d queries issued after ResetCounters", trial, name, n)
				}
			}
		}
	}
}

// TestBindingMatchesOracleByName holds the frame to the oracle slot by
// slot, each slot a variable by first occurrence, where which variable
// a slot is matters: a body with no variables
// (found with an empty binding, which is not "not found"), a
// substitution that merges two body variables into one slot, and one
// that turns a variable into a constant. Each body has one answer, so
// choose-1 leaves nothing to the join order.
func TestBindingMatchesOracleByName(t *testing.T) {
	in := db.NewInstance()
	a := in.CreateRelation("A", "c0", "c1")
	a.Insert("1", "1")
	a.Insert("1", "2")
	a.Insert("3", "4")
	in.CreateRelation("B", "c0").Insert("4")
	sh := db.NewShardedInstance(2)
	sa := sh.CreateRelation("A", 0, "c0", "c1")
	sa.Insert("1", "1")
	sa.Insert("1", "2")
	sa.Insert("3", "4")
	sh.CreateRelation("B", 0, "c0").Insert("4")

	merged, bound := unify.New(), unify.New()
	merged.Reset(2) // x and y
	bound.Reset(2)
	if err := merged.Union(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := bound.Bind(1, "4"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		body  []eq.Atom
		s     *unify.Subst
		found bool
		vars  int
	}{
		{"ground, stored", []eq.Atom{eq.NewAtom("A", eq.C("1"), eq.C("2"))}, nil, true, 0},
		{"ground, absent", []eq.Atom{eq.NewAtom("A", eq.C("2"), eq.C("1"))}, nil, false, 0},
		{"empty body", nil, nil, true, 0},
		{"two variables", []eq.Atom{eq.NewAtom("A", eq.V("x"), eq.V("y")), eq.NewAtom("B", eq.V("y"))}, nil, true, 2},
		{"x and y merged", []eq.Atom{eq.NewAtom("A", eq.V("x"), eq.V("y"))}, merged, true, 1},
		{"y bound", []eq.Atom{eq.NewAtom("A", eq.V("x"), eq.V("y"))}, bound, true, 1},
	}
	stores := map[string]storePair{"plain": {in, dbtest.New(in)}, "k=2": {sh, dbtest.NewSharded(sh)}}
	for _, c := range cases {
		for name, st := range stores {
			solve := func(s db.Store) (db.Binding, bool, error) {
				if c.s == nil {
					return s.Solve(c.body)
				}
				return s.SolveUnder(c.body, over(c.s, c.body))
			}
			got, ok, err := solve(st.compiled)
			want, wantOK, wantErr := solve(st.oracle)
			if err != nil || wantErr != nil {
				t.Fatalf("%s on %s: %v, oracle %v", c.name, name, err, wantErr)
			}
			if ok != c.found || wantOK != c.found {
				t.Fatalf("%s on %s: found %v, oracle %v, want %v", c.name, name, ok, wantOK, c.found)
			}
			if got.Len() != c.vars || frame(got) != frame(want) {
				t.Fatalf("%s on %s: bound %q (%d variables), oracle %q, want %d variables",
					c.name, name, frame(got), got.Len(), frame(want), c.vars)
			}
		}
	}
	// The merged class is the body's one slot.
	got, _, _ := in.SolveUnder(cases[4].body, over(merged, cases[4].body))
	if got.Len() != 1 || got.At(0) != "1" {
		t.Fatalf("merged slot: %v", got)
	}
}

// TestCompiledContainsMatchesSeed checks the membership primitive on
// random ground atoms across the store family, against the oracle's
// scan.
func TestCompiledContainsMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	arities := map[string]int{"A": 2, "B": 1, "C": 3, "Nope": 2}
	names := []string{"A", "B", "C", "Nope"}
	for trial := 0; trial < 40; trial++ {
		es := buildEquivStores(rng)
		for i := 0; i < 20; i++ {
			n := names[rng.Intn(len(names))]
			args := make([]eq.Term, arities[n])
			for j := range args {
				args[j] = eq.C(eq.Value(strconv.Itoa(rng.Intn(5))))
			}
			a := eq.NewAtom(n, args...)
			want := es.plain.Contains(a)
			if got := dbtest.New(es.plain).Contains(a); got != want {
				t.Fatalf("trial %d: plain Contains(%s) compiled %v seed %v", trial, a, want, got)
			}
			for k, sh := range es.sharded {
				if got := sh.Contains(a); got != want {
					t.Fatalf("trial %d: k=%d Contains(%s) = %v, plain %v", trial, k, a, got, want)
				}
				if got := dbtest.NewSharded(sh).Contains(a); got != want {
					t.Fatalf("trial %d: k=%d oracle Contains(%s) = %v, plain %v", trial, k, a, got, want)
				}
			}
		}
	}
}
