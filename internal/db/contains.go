package db

import "entangled/internal/eq"

// Contains reports whether the ground atom a denotes a tuple present in
// the instance. Unlike Solve it does not increment the query counter; it
// exists for verifiers and tests. Atoms over unknown relations or with
// variables are simply not contained.
//
// Membership runs a compiled plan in existence mode (no binding is
// materialised), so verifier sweeps share the hot plans of the queries
// they check.
func (in *Instance) Contains(a eq.Atom) bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	body := [1]eq.Atom{a}
	p, err := planFor(in, &in.plans, body[:], nil)
	if err != nil {
		return false
	}
	return p.satisfiable(body[:])
}
