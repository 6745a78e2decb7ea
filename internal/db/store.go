package db

import (
	"errors"
	"sync/atomic"

	"entangled/internal/eq"
	"entangled/internal/unify"
)

// ErrSchema is wrapped by the error of a query with an atom over a
// relation the store lacks, or of another arity; no row is read.
var ErrSchema = errors.New("db: query does not fit the schema")

// Store is the read surface the coordination algorithms evaluate
// against: conjunctive-query answering under choose-1 semantics, ground
// membership, the value domain, and an aggregate query counter. Both
// *Instance (one node) and *ShardedInstance (hash-partitioned across K
// instances) implement it, as does *Meter (a per-request counting view
// over either). Implementations must be safe for concurrent use.
type Store interface {
	// Solve answers the conjunctive query under choose-1 semantics:
	// one satisfying assignment, or ok=false. Counts as one query.
	Solve(body []eq.Atom) (Binding, bool, error)
	// SolveAll returns up to limit satisfying assignments (limit <= 0
	// means all). Counts as one query.
	SolveAll(body []eq.Atom, limit int) ([]Binding, error)
	// Satisfiable reports whether the body has at least one answer.
	// Counts as one query.
	Satisfiable(body []eq.Atom) (bool, error)
	// SolveUnder answers the body resolved under a substitution.
	// Counts as one query. Implementations must not retain body or s
	// past return: callers reuse both for their next query.
	SolveUnder(body []eq.Atom, s *unify.Subst) (Binding, bool, error)
	// Contains reports whether the ground atom denotes a stored tuple.
	// It is a verifier primitive and does not count as a query.
	Contains(a eq.Atom) bool
	// Domain returns every constant in the store, sorted ascending.
	Domain() []eq.Value
	// QueriesIssued returns the number of conjunctive queries answered
	// since the last ResetCounters.
	QueriesIssued() int64
	// ResetCounters zeroes the query counter.
	ResetCounters()
}

var (
	_ Store = (*Instance)(nil)
	_ Store = (*ShardedInstance)(nil)
	_ Store = (*Meter)(nil)
	_ Store = (*shardView)(nil)
)

// Meter is a per-request counting view over a Store. Every counted
// query method increments the meter's private counter and then
// delegates, so one request's conjunctive-query cost can be read
// exactly (Meter.QueriesIssued) even while concurrent requests share the
// underlying store — the underlying store's own aggregate counter still
// accumulates across all requests. Contains and Domain, which count
// nothing, are the embedded store's own. The coordination algorithms
// wrap their store argument in a fresh Meter per run; Result.DBQueries
// is that meter's final count.
//
// A Meter is safe for concurrent use, like every db.Store: its counter
// is atomic, so a caller may issue queries through one meter from
// several goroutines and still read an exact count.
type Meter struct {
	Store
	n atomic.Int64
}

// NewMeter returns a zeroed counting view over store.
func NewMeter(store Store) *Meter { return &Meter{Store: store} }

// Solve counts one query and delegates.
func (m *Meter) Solve(body []eq.Atom) (Binding, bool, error) {
	m.n.Add(1)
	return m.Store.Solve(body)
}

// SolveAll counts one query and delegates.
func (m *Meter) SolveAll(body []eq.Atom, limit int) ([]Binding, error) {
	m.n.Add(1)
	return m.Store.SolveAll(body, limit)
}

// Satisfiable counts one query and delegates.
func (m *Meter) Satisfiable(body []eq.Atom) (bool, error) {
	m.n.Add(1)
	return m.Store.Satisfiable(body)
}

// SolveUnder counts one query and delegates.
func (m *Meter) SolveUnder(body []eq.Atom, s *unify.Subst) (Binding, bool, error) {
	m.n.Add(1)
	return m.Store.SolveUnder(body, s)
}

// QueriesIssued returns the per-request count — the meter is the
// request's view of the store, not the shared aggregate.
func (m *Meter) QueriesIssued() int64 { return m.n.Load() }

// ResetCounters zeroes the per-request count only; the underlying
// store's aggregate counter is left untouched.
func (m *Meter) ResetCounters() { m.n.Store(0) }
