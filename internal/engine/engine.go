package engine

import (
	"context"
	"runtime"
	"sync"

	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/stream"
)

// Options configures an Engine.
type Options struct {
	// Workers sizes the pool CoordinateMany drains a request batch on,
	// and a server's batch workers. Zero means GOMAXPROCS.
	Workers int
}

// Engine runs coordination workloads over one shared store.
type Engine struct {
	store   db.Store
	router  db.Router // non-nil when store routes: requests route per shard
	workers int
}

// New returns an engine over the given store — a *db.Instance, a
// *db.ShardedInstance, a durable persist.Backend, or any other
// db.Store. When the store implements db.Router (sharded stores and
// wrappers over them), the engine routes each request to the single
// shard its query bodies pin, when they pin one, so independent
// requests fan out to disjoint shard locks instead of contending on
// one relation lock.
func New(store db.Store, opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{store: store, workers: w}
	if r, ok := store.(db.Router); ok {
		e.router = r
	}
	return e
}

// Workers returns the size of the batch worker pool.
func (e *Engine) Workers() int { return e.workers }

// Store returns the shared database store.
func (e *Engine) Store() db.Store { return e.store }

// routed returns the store a request should run against: the single
// shard pinned by the request's query bodies when the engine serves a
// sharded store and the request is routable, the shared store
// otherwise. Routing is the engine's job, not the db layer's: only the
// serving layer sees request boundaries, and the db layer stays
// correct for arbitrary queries without guessing at them.
func (e *Engine) routed(qs []eq.Query) db.Store {
	if e.router != nil {
		if view, ok := e.router.Route(qs); ok {
			return view
		}
	}
	return e.store
}

// Coordinate serves one request: the step CoordinateMany runs for each
// of a batch's.
func (e *Engine) Coordinate(ctx context.Context, qs []eq.Query) (*coord.Result, error) {
	resp := e.serve(ctx, &Request{Queries: qs})
	return resp.Result, resp.Err
}

// Request is one unit of CoordinateMany work: an independent entangled
// query set to coordinate over the engine's shared instance.
type Request struct {
	// ID is an opaque caller tag echoed in the Response.
	ID string
	// Queries is the entangled query set for this request.
	Queries []eq.Query
}

// Response pairs a request's outcome with its ID, in request order.
// Result.DBQueries is exact for the request alone — each run counts on
// a private db.Meter — so the paper's cost metric survives concurrent
// serving; the store's aggregate QueriesIssued still totals the whole
// batch.
type Response struct {
	ID     string
	Result *coord.Result
	Err    error
}

// CoordinateMany serves a batch of independent requests concurrently on
// the worker pool, one goroutine per in-flight request over the shared
// instance. Responses come back in request order. Cancelling ctx stops
// dispatching; the remaining responses carry ctx.Err().
func (e *Engine) CoordinateMany(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	workers := e.workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers <= 1 {
		for i := range reqs {
			out[i] = e.serve(ctx, &reqs[i])
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = e.serve(ctx, &reqs[i])
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// serve runs one request, against the single shard its bodies pin when
// the store is sharded and the request is routable. The store is
// context-wrapped, so a canceled or expired ctx aborts the plan at the
// next query instead of running it to completion.
func (e *Engine) serve(ctx context.Context, req *Request) Response {
	if err := ctx.Err(); err != nil {
		return Response{ID: req.ID, Err: err}
	}
	res, err := coord.SCCCoordinate(req.Queries, db.WithContext(ctx, e.routed(req.Queries)), coord.Options{})
	return Response{ID: req.ID, Result: res, Err: err}
}

// NewSession opens a streaming coordination session over the engine's
// shared store: queries join and leave one at a time, and coordination
// state is maintained incrementally (only the condensation components
// whose reachable set an event touches are re-solved; see
// internal/stream). Sessions run against the whole store, not a routed
// shard — a session's queries accumulate over time, so no single shard
// is pinned up front; per-request routing remains a batch-path
// optimisation.
func (e *Engine) NewSession(opts stream.Options) *stream.Session {
	return stream.New(e.store, opts)
}
