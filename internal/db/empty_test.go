package db_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"entangled/internal/db"
	"entangled/internal/db/dbtest"
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// TestNoAnswerNamesOneEmptyAtom holds the contract of Binding.Empty on
// seeded random stores and bodies, as given and under a random
// substitution: on every query with no answer, the instance, its
// sharded copies at K = 2 and K = 8 and dbtest.Oracle name the same
// atom, and it is the one the definition names — the first, in body
// order, of the atoms sharing no variable with the rest of the resolved
// body, that matches no row on its own, each checked here with
// Satisfiable. An answered query names none. The trials must meet every
// case: a lone empty atom named through an indexed column and by a
// scan; an empty atom joined through a shared variable, which is never
// named; and an atom empty only under the substitution.
func TestNoAnswerNamesOneEmptyAtom(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var indexed, scanned, joined, underOnly int
	for trial := 0; trial < 200; trial++ {
		es := buildEquivStores(rng)
		stores := map[string]db.Store{"plain": es.plain, "k=2": es.sharded[2], "k=8": es.sharded[8], "oracle": dbtest.New(es.plain)}
		for range 6 {
			body, subst := randomBody(rng), randomSubst(rng)
			for _, s := range []*unify.Subst{nil, subst} {
				resolved := body
				if s != nil {
					resolved = dbtest.Resolve(body, over(s, body))
				}
				answered := satisfiable(t, es.plain, resolved)
				want, joins := definedEmpty(t, es.plain, resolved)
				for name, st := range stores {
					var b db.Binding
					var ok bool
					var err error
					if s == nil {
						b, ok, err = st.Solve(body)
					} else {
						b, ok, err = st.SolveUnder(body, s)
					}
					atom, named := b.Empty()
					ctx := fmt.Sprintf("trial %d, store %s, body %v, resolved %v", trial, name, body, resolved)
					switch {
					case err != nil:
						t.Fatalf("%s: %v", ctx, err)
					case ok != answered:
						t.Fatalf("%s: answered %v, Satisfiable says %v", ctx, ok, answered)
					case ok && named:
						t.Fatalf("%s: an answer names atom %d", ctx, atom)
					case !ok && (atom != want || named != (want >= 0)):
						t.Fatalf("%s: names atom %d (%v), want %d", ctx, atom, named, want)
					}
				}
				if answered {
					continue
				}
				joined += joins
				if want < 0 {
					continue
				}
				if s != nil && satisfiable(t, es.plain, body[want:want+1]) {
					underOnly++
				}
				r, _ := es.plain.Relation(resolved[want].Rel)
				if slices.ContainsFunc(r.IndexedColumns(), func(c int) bool { return !resolved[want].Args[c].IsVar() }) {
					indexed++
				} else {
					scanned++
				}
			}
		}
	}
	if indexed == 0 || scanned == 0 || joined == 0 || underOnly == 0 {
		t.Fatalf("named %d atoms through an index and %d by a scan, passed %d joined empty atoms, named %d empty only under the substitution: every case must occur", indexed, scanned, joined, underOnly)
	}
	t.Logf("named %d atoms through an index and %d by a scan, passed %d joined empty atoms, named %d empty only under the substitution", indexed, scanned, joined, underOnly)
}

// definedEmpty returns the atom a query of body with no answer names,
// by the definition, or -1, and how many atoms of body match no row on
// their own but share a variable with another atom.
func definedEmpty(t *testing.T, in *db.Instance, body []eq.Atom) (atom, joins int) {
	t.Helper()
	atom = -1
	for i, a := range body {
		if satisfiable(t, in, body[i:i+1]) {
			continue
		}
		lone := !slices.ContainsFunc(a.Args, func(v eq.Term) bool {
			return v.IsVar() && slices.ContainsFunc(slices.Concat(body[:i], body[i+1:]), func(b eq.Atom) bool { return slices.Contains(b.Args, v) })
		})
		switch {
		case !lone:
			joins++
		case atom < 0:
			atom = i
		}
	}
	return atom, joins
}

func satisfiable(t *testing.T, in *db.Instance, body []eq.Atom) bool {
	t.Helper()
	ok, err := in.Satisfiable(body)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}
