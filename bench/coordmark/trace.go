package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/stream"
	"entangled/internal/unify"
)

// span is one traced interval. Spans of one sampled operation share Op;
// Parent is the span that was open on the driving goroutine when this
// one began (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// agg is a lock-free count/time accumulator for a seam that fires too
// often, and too concurrently, to keep a span per call during the
// closed-loop phase.
type agg struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (a *agg) add(d time.Duration) {
	a.n.Add(1)
	a.ns.Add(int64(d))
}

func (a *agg) perCall() float64 {
	if n := a.n.Load(); n > 0 {
		return float64(a.ns.Load()) / float64(n)
	}
	return 0
}

// tracer collects what the traced run observes from outside the
// program: aggregates from the seams while the closed loop runs, and
// full parent-linked spans while the sequential nested sample runs.
// A nil *tracer is the untraced run: every method is a no-op on nil,
// and the decorators are not installed at all.
type tracer struct {
	epoch time.Time
	// on gates the seams: they record only between the start and the
	// end of a traced phase, so warm-up and verification stay out.
	on atomic.Bool

	db      agg // store queries (Solve, SolveUnder, Satisfiable, SolveAll)
	fsWrite agg
	fsSync  agg
	fsBytes atomic.Int64
	join    agg // stream.Update.Elapsed of admitted joins
	leave   agg
	dirty   atomic.Int64
	reused  atomic.Int64
	evDBQ   atomic.Int64

	// Nested sample: spans are kept only while sampling is set; stack
	// is the chain of open spans of the (single) driving goroutine.
	mu       sync.Mutex
	sampling bool
	spans    []span
	stack    []int
	op       int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// leaf records one seam interval: into the aggregate always, and as a
// span under the currently open one while the nested sample runs.
func (t *tracer) leaf(a *agg, name string, start time.Time, d time.Duration) {
	a.add(d)
	t.mu.Lock()
	if t.sampling {
		parent := 0
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1]
		}
		s0 := start.Sub(t.epoch).Nanoseconds()
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: s0, End: s0 + int64(d)})
	}
	t.mu.Unlock()
}

// begin opens a span on the driving goroutine; end closes it and
// returns its duration.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.epoch).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.stack = t.stack[:len(t.stack)-1]
	return time.Duration(now - t.spans[id-1].Start)
}

// childTime sums the durations of id's direct children named name.
func (t *tracer) childTime(id int, name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans[id:] {
		if s.Parent == id && s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

func (t *tracer) setSampling(v bool) {
	t.mu.Lock()
	t.sampling = v
	t.mu.Unlock()
}

func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// truncateSpans drops the spans recorded after the first n.
func (t *tracer) truncateSpans(n int) {
	t.mu.Lock()
	t.spans = t.spans[:n]
	t.mu.Unlock()
}

func (t *tracer) nextOp() {
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
}

// writeSpans dumps the sample's spans as JSON once the run is over.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// onUpdate is the stream.Options.OnUpdate seam.
func (t *tracer) onUpdate(up stream.Update) {
	if !t.active() || !up.Admitted {
		return
	}
	if up.Event.Kind == stream.JoinEvent {
		t.join.add(up.Elapsed)
	} else {
		t.leave.add(up.Elapsed)
	}
	t.dirty.Add(int64(up.Stats.Dirty))
	t.reused.Add(int64(up.Stats.Reused))
	t.evDBQ.Add(up.Stats.DBQueries)
}

// timedStore is the db.Store seam: a decorator in the mould of db.Meter
// and fault.NewStore that times every counted query. It forwards the
// optional Router and PlanStatser surfaces so the engine routes, and
// /metrics reports plan-cache counters, exactly as over the bare store.
type timedStore struct {
	inner db.Store
	t     *tracer
}

var (
	_ db.Store       = (*timedStore)(nil)
	_ db.Router      = (*timedStore)(nil)
	_ db.PlanStatser = (*timedStore)(nil)
)

func (s *timedStore) timed(start time.Time) {
	if s.t.on.Load() {
		s.t.leaf(&s.t.db, "db", start, time.Since(start))
	}
}

func (s *timedStore) Solve(body []eq.Atom) (db.Binding, bool, error) {
	defer s.timed(time.Now())
	return s.inner.Solve(body)
}

func (s *timedStore) SolveAll(body []eq.Atom, limit int) ([]db.Binding, error) {
	defer s.timed(time.Now())
	return s.inner.SolveAll(body, limit)
}

func (s *timedStore) Satisfiable(body []eq.Atom) (bool, error) {
	defer s.timed(time.Now())
	return s.inner.Satisfiable(body)
}

func (s *timedStore) SolveUnder(body []eq.Atom, sub *unify.Subst) (db.Binding, bool, error) {
	defer s.timed(time.Now())
	return s.inner.SolveUnder(body, sub)
}

func (s *timedStore) Contains(a eq.Atom) bool { return s.inner.Contains(a) }
func (s *timedStore) Domain() []eq.Value      { return s.inner.Domain() }
func (s *timedStore) QueriesIssued() int64    { return s.inner.QueriesIssued() }
func (s *timedStore) ResetCounters()          { s.inner.ResetCounters() }

func (s *timedStore) Route(qs []eq.Query) (db.Store, bool) {
	r, ok := s.inner.(db.Router)
	if !ok {
		return nil, false
	}
	view, ok := r.Route(qs)
	if !ok {
		return nil, false
	}
	return &timedStore{inner: view, t: s.t}, true
}

func (s *timedStore) PlanStats() db.PlanCacheStats {
	st, _ := db.AggregatePlanStats(s.inner)
	return st
}
