package db

import (
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// planner answers the counted queries of a store that compiles its own
// plans. Instance and ShardedInstance each embed one and differ only in
// where a plan's parts come from (src): each query counts one on the
// store's counter, compiles (or fetches) the body shape's plan —
// resolved under a substitution when there is one — and runs it over a
// slot frame. On a ShardedInstance a plan resolves every relation's
// parts across all shards once, and a call locks and probes only the
// parts its constants can reach, so writers to the others never wait.
// The store's constructor sets src to the store itself, so a store is
// made only by NewInstance or NewShardedInstance, never as a zero value,
// and used through that pointer (it holds locks, so vet refuses a copy).
type planner struct {
	src   planSource
	plans planCache
}

// Solve answers the conjunctive query given by body under choose-1
// semantics: it returns one assignment of the body's variables to domain
// values such that every grounded atom is in the store, or ok=false
// if none exists. An empty body is vacuously satisfiable.
func (p *planner) Solve(body []eq.Atom) (Binding, bool, error) { return p.SolveUnder(body, nil) }

// SolveUnder answers the body under a pre-existing substitution (the MGU
// accumulated by a coordination algorithm): the atoms are resolved under
// s before evaluation, and the returned binding covers the resolved
// variables. Terms are resolved at bind time; no substituted copy of the
// body is materialised.
func (p *planner) SolveUnder(body []eq.Atom, s *unify.Subst) (Binding, bool, error) {
	pl, err := p.plan(body, s)
	if err != nil {
		return Binding{}, false, err
	}
	b, ok := pl.solveOne(body, s)
	return b, ok, nil
}

// SolveAll returns up to limit assignments satisfying the body (limit <=
// 0 means no limit). Each assignment grounds every variable of the body.
func (p *planner) SolveAll(body []eq.Atom, limit int) ([]Binding, error) {
	pl, err := p.plan(body, nil)
	if err != nil {
		return nil, err
	}
	return pl.solveAll(body, limit), nil
}

// Satisfiable reports whether the body has at least one answer. It runs
// the plan in existence mode: no binding is materialised.
func (p *planner) Satisfiable(body []eq.Atom) (bool, error) {
	pl, err := p.plan(body, nil)
	return err == nil && pl.satisfiable(body), err
}

// plan counts one query and returns the plan of body, resolved under s.
func (p *planner) plan(body []eq.Atom, s *unify.Subst) (*plan, error) {
	p.src.countQuery()
	return planFor(p.src, &p.plans, body, s)
}

// PlanStats reports the store's plan-cache counters (a routed
// single-shard query hits the owning shard's cache).
func (p *planner) PlanStats() PlanCacheStats { return p.plans.stats() }
