package db

import (
	"fmt"
	"sync"
	"testing"

	"entangled/internal/eq"
)

func planTestInstance() *Instance {
	in := NewInstance()
	r := in.CreateRelation("R", "a", "b")
	for i := 0; i < 16; i++ {
		r.Insert(eq.Value(fmt.Sprintf("k%d", i)), eq.Value(fmt.Sprintf("v%d", i%4)))
	}
	r.BuildIndex(1)
	return in
}

func TestShapeKeyCanonicalisation(t *testing.T) {
	key := func(body []eq.Atom) string {
		sb := new(shapeBuf)
		sb.build(body, nil)
		return string(sb.key)
	}
	// Different constants, different variable names: same shape.
	a := []eq.Atom{eq.NewAtom("R", eq.V("x"), eq.C("1")), eq.NewAtom("S", eq.V("x"), eq.V("y"))}
	b := []eq.Atom{eq.NewAtom("R", eq.V("p"), eq.C("2")), eq.NewAtom("S", eq.V("p"), eq.V("q"))}
	if key(a) != key(b) {
		t.Fatalf("shapes should agree: %q vs %q", key(a), key(b))
	}
	// Different variable equality pattern: different shape.
	c := []eq.Atom{eq.NewAtom("R", eq.V("x"), eq.C("1")), eq.NewAtom("S", eq.V("y"), eq.V("y"))}
	if key(a) == key(c) {
		t.Fatalf("different equality patterns must differ: %q", key(a))
	}
	// Constant vs variable in a position: different shape.
	d := []eq.Atom{eq.NewAtom("R", eq.C("1"), eq.C("1")), eq.NewAtom("S", eq.V("p"), eq.V("q"))}
	if key(a) == key(d) {
		t.Fatalf("const/var patterns must differ: %q", key(a))
	}
	// Relation names cannot collide through separators.
	e := []eq.Atom{eq.NewAtom("R(1:x", eq.V("x"))}
	f := []eq.Atom{eq.NewAtom("R", eq.V("x"))}
	if key(e) == key(f) {
		t.Fatal("adversarial relation name collides")
	}
	// Variable numbers are delimited: past ten variables, S(x1, x10) and
	// S(x11, x0) are different shapes.
	vars := make([]eq.Term, 12)
	for i := range vars {
		vars[i] = eq.V(fmt.Sprintf("x%d", i))
	}
	wide := eq.NewAtom("W", vars...)
	g := []eq.Atom{wide, eq.NewAtom("S", vars[1], vars[10])}
	h := []eq.Atom{wide, eq.NewAtom("S", vars[11], vars[0])}
	if key(g) == key(h) {
		t.Fatalf("argument numbers run together: %q", key(g))
	}
}

func TestPlanCacheHitsAndSharing(t *testing.T) {
	in := planTestInstance()
	body := func(v string, c eq.Value) []eq.Atom {
		return []eq.Atom{eq.NewAtom("R", eq.V(v), eq.C(c))}
	}
	if _, _, err := in.Solve(body("x", "v1")); err != nil {
		t.Fatal(err)
	}
	st := in.PlanStats()
	if st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("first query should compile one plan: %+v", st)
	}
	// Same shape, different constant and variable name: cache hit.
	if _, _, err := in.Solve(body("z", "v2")); err != nil {
		t.Fatal(err)
	}
	if st = in.PlanStats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("same shape must hit: %+v", st)
	}
}

func TestPlanCacheInvalidation(t *testing.T) {
	in := planTestInstance()
	body := []eq.Atom{eq.NewAtom("R", eq.V("x"), eq.C("v1"))}
	if _, _, err := in.Solve(body); err != nil {
		t.Fatal(err)
	}
	misses := in.PlanStats().Misses

	// BuildIndex retires plans over R.
	r, _ := in.Relation("R")
	r.BuildIndex(0)
	if _, _, err := in.Solve(body); err != nil {
		t.Fatal(err)
	}
	if st := in.PlanStats(); st.Misses != misses+1 {
		t.Fatalf("BuildIndex must invalidate: %+v (was %d misses)", st, misses)
	}
	misses++

	// AddRelation (schema change) retires everything; the replacing
	// relation has different contents and the fresh plan must see them.
	r2 := NewRelation("R", "a", "b")
	r2.Insert("only", "row")
	in.AddRelation(r2)
	res, err := in.SolveAll([]eq.Atom{eq.NewAtom("R", eq.V("x"), eq.V("y"))}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].At(0) != "only" {
		t.Fatalf("plan must re-resolve the replaced relation: %v", res)
	}
	if st := in.PlanStats(); st.Misses != misses+1 {
		t.Fatalf("AddRelation must invalidate: %+v", st)
	}
}

// TestPlanCacheConcurrentInvalidation hammers one instance with
// concurrent queries while the schema churns underneath them
// (BuildIndex bumps, whole-relation replacement). Run under -race; the
// assertion is simply that nothing panics, errors or deadlocks and
// answers stay sane.
func TestPlanCacheConcurrentInvalidation(t *testing.T) {
	in := planTestInstance()
	in.CreateRelation("S", "a").Insert("s0")
	const readers = 4
	const iters = 400
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bodies := [][]eq.Atom{
				{eq.NewAtom("R", eq.V("x"), eq.C("v1"))},
				{eq.NewAtom("R", eq.V("x"), eq.V("y")), eq.NewAtom("S", eq.V("z"))},
				{eq.NewAtom("R", eq.V("x"), eq.V("x"))},
			}
			for i := 0; i < iters; i++ {
				body := bodies[i%len(bodies)]
				if _, err := in.SolveAll(body, 4); err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
				if ok, err := in.Satisfiable(body); err != nil || !ok && i%len(bodies) == 1 {
					// Body 1 joins S, which always has a row, and R is
					// never empty: it must stay satisfiable.
					if err != nil {
						t.Errorf("reader %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			r, _ := in.Relation("R")
			r.BuildIndex(i % 2)
			repl := NewRelation("R", "a", "b")
			for j := 0; j < 8; j++ {
				repl.Insert(eq.Value(fmt.Sprintf("k%d", j)), eq.Value(fmt.Sprintf("v%d", j%4)))
			}
			repl.BuildIndex(1)
			in.AddRelation(repl)
		}
	}()
	wg.Wait()
}

// TestPlanCacheConcurrentInvalidationSharded is the sharded variant:
// routed and scatter queries race BuildIndex across all parts.
func TestPlanCacheConcurrentInvalidationSharded(t *testing.T) {
	sh := NewShardedInstance(4)
	r := sh.CreateRelation("R", 1, "a", "b")
	for i := 0; i < 32; i++ {
		r.Insert(eq.Value(fmt.Sprintf("k%d", i)), eq.Value(fmt.Sprintf("v%d", i%8)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				// Routed probe (constant hash column) and scatter scan.
				if _, _, err := sh.Solve([]eq.Atom{eq.NewAtom("R", eq.V("x"), eq.C(eq.Value(fmt.Sprintf("v%d", i%8))))}); err != nil {
					t.Errorf("routed: %v", err)
					return
				}
				if _, err := sh.SolveAll([]eq.Atom{eq.NewAtom("R", eq.V("x"), eq.V("y"))}, 2); err != nil {
					t.Errorf("scatter: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			r.BuildIndex(i % 2)
		}
	}()
	wg.Wait()
}
