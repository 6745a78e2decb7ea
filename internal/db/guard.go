package db

import (
	"context"

	"entangled/internal/eq"
	"entangled/internal/unify"
)

// A Check decides whether a counted query may reach the store: a
// non-nil error fails the query with that error.
type Check interface{ Check(descriptor string) error }

// Guard wraps store so each of its four counted queries first calls
// check.Check with the method's descriptor — "solve", "solveall",
// "satisfiable" or "solveunder" — and on an error fails with it,
// without touching the store. Every other method is the store's own.
// Guard is generic so the check lives in the guard itself, not boxed
// in a second allocation.
func Guard[C Check](store Store, check C) Store { return &guard[C]{store, check} }

type guard[C Check] struct {
	Store
	check C
}

func (g *guard[C]) Solve(body []eq.Atom) (Binding, bool, error) {
	if err := g.check.Check("solve"); err != nil {
		return Binding{}, false, err
	}
	return g.Store.Solve(body)
}

func (g *guard[C]) SolveAll(body []eq.Atom, limit int) ([]Binding, error) {
	if err := g.check.Check("solveall"); err != nil {
		return nil, err
	}
	return g.Store.SolveAll(body, limit)
}

func (g *guard[C]) Satisfiable(body []eq.Atom) (bool, error) {
	if err := g.check.Check("satisfiable"); err != nil {
		return false, err
	}
	return g.Store.Satisfiable(body)
}

func (g *guard[C]) SolveUnder(body []eq.Atom, s *unify.Subst) (Binding, bool, error) {
	if err := g.check.Check("solveunder"); err != nil {
		return Binding{}, false, err
	}
	return g.Store.SolveUnder(body, s)
}

// WithContext guards a store with ctx: once it is canceled or past its
// deadline, each counted query fails with ctx.Err(), so a deadline
// aborts a plan at its next query (a stalled store call still returns
// on its own). A context that can never be canceled (Background, TODO)
// returns the store unwrapped.
func WithContext(ctx context.Context, s Store) Store {
	if ctx == nil || ctx.Done() == nil {
		return s
	}
	return Guard(s, ctxCheck{ctx})
}

type ctxCheck struct{ ctx context.Context }

func (c ctxCheck) Check(string) error { return c.ctx.Err() }
