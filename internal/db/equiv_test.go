package db_test

import (
	"fmt"
	"math/rand"
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
// copies, random indexes, and a random UseIndexes setting.
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
	useIndexes := rng.Intn(2) == 0

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
	es.plain.UseIndexes = useIndexes
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
		sh.SetUseIndexes(useIndexes)
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
// space: some variables bound to constants, some unified with each
// other.
func randomSubst(rng *rand.Rand) *unify.Subst {
	s := unify.New()
	vars := []string{"x", "y", "z"}
	for _, v := range vars {
		switch rng.Intn(3) {
		case 0:
			_ = s.Bind(v, eq.Value(strconv.Itoa(rng.Intn(5))))
		case 1:
			_ = s.UnifyTerms(eq.V(v), eq.V(vars[rng.Intn(len(vars))]))
		}
	}
	return s
}

// bindingMultiset renders a result list order-independently.
func bindingMultiset(res []db.Binding) []string {
	out := make([]string, 0, len(res))
	for _, b := range res {
		keys := make([]string, 0, len(b))
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s=%s;", k, b[k])
		}
		out = append(out, sb.String())
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
// plans return the same multiset of bindings, the same ok, and the same
// query counts (db-level DBQueries) as the seed's backtracking
// evaluator, kept as dbtest.Oracle — and the sharded stores agree with
// the plain one.
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
			all     []string
			solveOK bool
			sat     bool
			underOK bool
			queries int64
		}
		collect := func(st db.Store, body []eq.Atom) answers {
			start := st.QueriesIssued()
			res, err := st.SolveAll(body, 0)
			if err != nil {
				t.Fatalf("trial %d: SolveAll: %v", trial, err)
			}
			_, ok, err := st.Solve(body)
			if err != nil {
				t.Fatalf("trial %d: Solve: %v", trial, err)
			}
			sat, err := st.Satisfiable(body)
			if err != nil {
				t.Fatalf("trial %d: Satisfiable: %v", trial, err)
			}
			_, underOK, err := st.SolveUnder(body, subst)
			if err != nil {
				t.Fatalf("trial %d: SolveUnder: %v", trial, err)
			}
			return answers{
				all:     bindingMultiset(res),
				solveOK: ok,
				sat:     sat,
				underOK: underOK,
				queries: st.QueriesIssued() - start,
			}
		}

		for bi, body := range bodies {
			var plainCompiled answers
			for name, st := range es.all() {
				compiled := collect(st.compiled, body)
				seed := collect(st.oracle, body)

				ctx := fmt.Sprintf("trial %d body %d store %s", trial, bi, name)
				sameMultiset(t, ctx, compiled.all, seed.all)
				if compiled.solveOK != seed.solveOK || compiled.sat != seed.sat || compiled.underOK != seed.underOK {
					t.Fatalf("%s: ok flags differ: compiled %+v seed %+v", ctx, compiled, seed)
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
