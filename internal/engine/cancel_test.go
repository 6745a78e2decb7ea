package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/unify"
	"entangled/internal/workload"
)

// gateStore counts queries and can block them on a gate, so a test can
// cancel a context while a plan is mid-flight and then let the blocked
// call return.
type gateStore struct {
	inner   db.Store
	queries atomic.Int64
	gate    chan struct{} // nil: never block
	started chan struct{} // closed on the first counted query
	once    atomic.Bool
}

func newGateStore(inner db.Store) *gateStore {
	return &gateStore{inner: inner, gate: make(chan struct{}), started: make(chan struct{})}
}

func (g *gateStore) enter() {
	g.queries.Add(1)
	if g.once.CompareAndSwap(false, true) {
		close(g.started)
	}
	if g.gate != nil {
		<-g.gate
	}
}

func (g *gateStore) Solve(body []eq.Atom) (db.Binding, bool, error) {
	g.enter()
	return g.inner.Solve(body)
}
func (g *gateStore) SolveAll(body []eq.Atom, limit int) ([]db.Binding, error) {
	g.enter()
	return g.inner.SolveAll(body, limit)
}
func (g *gateStore) Satisfiable(body []eq.Atom) (bool, error) {
	g.enter()
	return g.inner.Satisfiable(body)
}
func (g *gateStore) SolveUnder(body []eq.Atom, s *unify.Subst) (db.Binding, bool, error) {
	g.enter()
	return g.inner.SolveUnder(body, s)
}
func (g *gateStore) Contains(a eq.Atom) bool { return g.inner.Contains(a) }
func (g *gateStore) Domain() []eq.Value      { return g.inner.Domain() }
func (g *gateStore) QueriesIssued() int64    { return g.queries.Load() }
func (g *gateStore) ResetCounters()          { g.queries.Store(0) }

// TestCoordinateManyCancelAbortsMidPlan: cancelling the batch context
// while a plan is blocked inside a store call makes the engine return
// promptly once that call comes back — the context-wrapped store fails
// every later query instead of running the plan to completion — and
// the responses carry the typed context error.
func TestCoordinateManyCancelAbortsMidPlan(t *testing.T) {
	gs := newGateStore(listInstance(t))
	e := New(gs, Options{Workers: 2})
	reqs := []Request{
		{ID: "a", Queries: workload.JoinedDeadEnd(workload.ListQueries(6, testRows))},
		{ID: "b", Queries: workload.JoinedDeadEnd(workload.ListQueries(6, testRows))},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []Response, 1)
	go func() { done <- e.CoordinateMany(ctx, reqs) }()

	<-gs.started // a plan is inside its first store call
	cancel()
	close(gs.gate) // release every blocked (and future) call

	select {
	case out := <-done:
		for _, r := range out {
			if r.Err == nil {
				t.Fatalf("request %s completed despite cancellation", r.ID)
			}
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("request %s: %v, want context.Canceled", r.ID, r.Err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CoordinateMany did not return after cancel — a canceled plan ran on")
	}
	// The abort is at the next query boundary: at most one in-flight
	// store call per worker finished after cancel, the rest of each plan
	// (six queries for each of these dead-end lists) never ran.
	if n := gs.queries.Load(); n > int64(2*len(reqs)) {
		t.Fatalf("%d store queries issued after cancel-at-first-query; the plans kept running", n)
	}
}

// TestCoordinateCancelledBeforeStart fails fast without touching the
// store at all.
func TestCoordinateCancelledBeforeStart(t *testing.T) {
	gs := newGateStore(listInstance(t))
	gs.gate = nil // never block; the call must not even reach the store
	e := New(gs, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Coordinate(ctx, workload.ListQueries(4, testRows)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := gs.queries.Load(); n != 0 {
		t.Fatalf("%d store queries issued for a pre-canceled request", n)
	}
	// An empty set asks no query a context-wrapped store could refuse:
	// the engine's own check is what fails it.
	if res, err := e.Coordinate(ctx, nil); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("empty set: %+v, %v, want context.Canceled", res, err)
	}
}

// TestCoordinateDeadlinePropagates: an expired deadline surfaces as
// context.DeadlineExceeded from the store boundary mid-plan.
func TestCoordinateDeadlinePropagates(t *testing.T) {
	gs := newGateStore(listInstance(t))
	gs.gate = nil
	e := New(gs, Options{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	out := e.CoordinateMany(ctx, []Request{{ID: "x", Queries: workload.ListQueries(4, testRows)}})
	if !errors.Is(out[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", out[0].Err)
	}
}
