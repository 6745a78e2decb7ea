package db

import (
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// Binding maps variable names to database values; it is the result of
// grounding a conjunctive query.
type Binding map[string]eq.Value

// Solve answers the conjunctive query given by body under choose-1
// semantics: it returns one assignment of the body's variables to domain
// values such that every grounded atom is in the instance, or ok=false
// if none exists. An empty body is vacuously satisfiable.
func (in *Instance) Solve(body []eq.Atom) (Binding, bool, error) {
	return first(in.solve(body, nil, 1))
}

// SolveAll returns up to limit assignments satisfying the body (limit <=
// 0 means no limit). Each assignment grounds every variable of the body.
func (in *Instance) SolveAll(body []eq.Atom, limit int) ([]Binding, error) {
	return in.solve(body, nil, limit)
}

// Satisfiable reports whether the body has at least one answer. It runs
// the plan in existence mode: no binding is materialised.
func (in *Instance) Satisfiable(body []eq.Atom) (bool, error) {
	in.countQuery()
	p, err := in.planFor(body, nil)
	if err != nil {
		return false, err
	}
	return p.satisfiable(body, in.UseIndexes), nil
}

// SolveUnder answers the body under a pre-existing substitution (the MGU
// accumulated by a coordination algorithm): the atoms are resolved under
// s before evaluation, and the returned binding covers the resolved
// variables. Terms are resolved at bind time; no substituted copy of the
// body is materialised.
func (in *Instance) SolveUnder(body []eq.Atom, s *unify.Subst) (Binding, bool, error) {
	return first(in.solve(body, s, 1))
}

// first adapts a result list to choose-1 semantics.
func first(res []Binding, err error) (Binding, bool, error) {
	if err != nil || len(res) == 0 {
		return nil, false, err
	}
	return res[0], true, nil
}

// solve answers one conjunctive query, resolved under s when s is
// non-nil: compile (or fetch) the body shape's plan and run it over a
// slot frame.
func (in *Instance) solve(body []eq.Atom, s *unify.Subst, limit int) ([]Binding, error) {
	in.countQuery()
	p, err := in.planFor(body, s)
	if err != nil {
		return nil, err
	}
	return p.solve(body, s, limit, in.UseIndexes), nil
}
