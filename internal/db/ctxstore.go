package db

import (
	"context"

	"entangled/internal/eq"
	"entangled/internal/unify"
)

// WithContext wraps a store so every counted query first checks the
// context: once it is canceled or past its deadline, each query fails
// with ctx.Err() instead of touching the store. Coordination
// algorithms issue many queries per plan, so this is what lets a
// server deadline abort a plan mid-flight — a stalled store call still
// has to return on its own, but no further calls are issued after it.
//
// A context that can never be canceled (Background, TODO) returns the
// store unwrapped.
func WithContext(ctx context.Context, s Store) Store {
	if ctx == nil || ctx.Done() == nil {
		return s
	}
	return &ctxStore{ctx: ctx, inner: s}
}

type ctxStore struct {
	ctx   context.Context
	inner Store
}

var _ Store = (*ctxStore)(nil)

func (c *ctxStore) Solve(body []eq.Atom) (Binding, bool, error) {
	if err := c.ctx.Err(); err != nil {
		return Binding{}, false, err
	}
	return c.inner.Solve(body)
}

func (c *ctxStore) SolveAll(body []eq.Atom, limit int) ([]Binding, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	return c.inner.SolveAll(body, limit)
}

func (c *ctxStore) Satisfiable(body []eq.Atom) (bool, error) {
	if err := c.ctx.Err(); err != nil {
		return false, err
	}
	return c.inner.Satisfiable(body)
}

func (c *ctxStore) SolveUnder(body []eq.Atom, s *unify.Subst) (Binding, bool, error) {
	if err := c.ctx.Err(); err != nil {
		return Binding{}, false, err
	}
	return c.inner.SolveUnder(body, s)
}

func (c *ctxStore) Contains(a eq.Atom) bool { return c.inner.Contains(a) }
func (c *ctxStore) Domain() []eq.Value      { return c.inner.Domain() }
func (c *ctxStore) QueriesIssued() int64    { return c.inner.QueriesIssued() }
func (c *ctxStore) ResetCounters()          { c.inner.ResetCounters() }
