package db

import (
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// Solve answers the conjunctive query given by body under choose-1
// semantics: it returns one assignment of the body's variables to domain
// values such that every grounded atom is in the instance, or ok=false
// if none exists. An empty body is vacuously satisfiable.
func (in *Instance) Solve(body []eq.Atom) (Binding, bool, error) {
	return solveOne(in, &in.plans, body, nil)
}

// SolveAll returns up to limit assignments satisfying the body (limit <=
// 0 means no limit). Each assignment grounds every variable of the body.
func (in *Instance) SolveAll(body []eq.Atom, limit int) ([]Binding, error) {
	return solveAll(in, &in.plans, body, limit)
}

// Satisfiable reports whether the body has at least one answer. It runs
// the plan in existence mode: no binding is materialised.
func (in *Instance) Satisfiable(body []eq.Atom) (bool, error) {
	return satisfiable(in, &in.plans, body)
}

// SolveUnder answers the body under a pre-existing substitution (the MGU
// accumulated by a coordination algorithm): the atoms are resolved under
// s before evaluation, and the returned binding covers the resolved
// variables. Terms are resolved at bind time; no substituted copy of the
// body is materialised.
func (in *Instance) SolveUnder(body []eq.Atom, s *unify.Subst) (Binding, bool, error) {
	return solveOne(in, &in.plans, body, s)
}

// solveOne, solveAll and satisfiable are the query methods of Instance
// and ShardedInstance, which differ only in where a plan's parts come
// from: count one query, compile (or fetch) the body shape's plan —
// resolved under s when s is non-nil — and run it over a slot frame.

func solveOne(src planSource, cache *planCache, body []eq.Atom, s *unify.Subst) (Binding, bool, error) {
	src.countQuery()
	p, err := planFor(src, cache, body, s)
	if err != nil {
		return Binding{}, false, err
	}
	b, ok := p.solveOne(body, s)
	return b, ok, nil
}

func solveAll(src planSource, cache *planCache, body []eq.Atom, limit int) ([]Binding, error) {
	src.countQuery()
	p, err := planFor(src, cache, body, nil)
	if err != nil {
		return nil, err
	}
	return p.solveAll(body, limit), nil
}

func satisfiable(src planSource, cache *planCache, body []eq.Atom) (bool, error) {
	src.countQuery()
	p, err := planFor(src, cache, body, nil)
	if err != nil {
		return false, err
	}
	return p.satisfiable(body), nil
}
