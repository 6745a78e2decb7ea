package db

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"entangled/internal/eq"
)

// Tuple is a database row.
type Tuple []eq.Value

// Relation is a named table with a fixed arity and optional per-column
// hash indexes. A Relation is safe for concurrent use: readers share an
// RWMutex, so any number of queries may scan it while mutations (Insert,
// BuildIndex, DeleteWhere) are serialised. Name and Attrs must not be
// changed once the relation is visible to other goroutines.
type Relation struct {
	Name  string
	Attrs []string // attribute names; len(Attrs) is the arity

	mu      sync.RWMutex
	tuples  []Tuple
	indexes map[int]map[eq.Value][]int // column -> value -> row numbers

	// version counts structural changes (BuildIndex); compiled plans
	// record it and retire themselves when it moves. Inserts do not
	// bump it: growing data never invalidates a plan's access paths.
	version atomic.Uint64
}

// NewRelation creates an empty relation with the given attribute names.
func NewRelation(name string, attrs ...string) *Relation {
	return &Relation{
		Name:    name,
		Attrs:   attrs,
		indexes: map[int]map[eq.Value][]int{},
	}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Attrs) }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tuples)
}

// Insert appends a tuple; it must match the relation's arity.
func (r *Relation) Insert(vals ...eq.Value) {
	if len(vals) != len(r.Attrs) {
		panic(fmt.Sprintf("db: %s expects %d columns, got %d", r.Name, len(r.Attrs), len(vals)))
	}
	t := make(Tuple, len(vals))
	copy(t, vals)
	r.mu.Lock()
	defer r.mu.Unlock()
	row := len(r.tuples)
	r.tuples = append(r.tuples, t)
	for col, idx := range r.indexes {
		idx[t[col]] = append(idx[t[col]], row)
	}
}

// BuildIndex creates (or rebuilds) a hash index on the given column.
// It invalidates any compiled plan that touches this relation (plans
// resolve their index probes against the relation's version).
func (r *Relation) BuildIndex(col int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buildIndexLocked(col)
	r.version.Add(1)
}

func (r *Relation) buildIndexLocked(col int) {
	idx := map[eq.Value][]int{}
	for row, t := range r.tuples {
		idx[t[col]] = append(idx[t[col]], row)
	}
	r.indexes[col] = idx
}

// Tuple returns the i-th tuple (shared, do not mutate).
func (r *Relation) Tuple(i int) Tuple {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tuples[i]
}

// Distinct returns the distinct value combinations over the given
// columns, in first-appearance order.
func (r *Relation) Distinct(cols []int) []Tuple {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return project(cols, scan{tuples: r.tuples, n: len(r.tuples)})
}

// Instance is a database instance: a set of relations plus counters that
// experiments read.
//
// An Instance is safe for concurrent use: the relation registry is
// guarded by an RWMutex, every relation carries its own RWMutex, and the
// query counter is atomic, so many goroutines may issue queries against
// one shared instance (the concurrent-engine serving path) while
// mutations are serialised. The UseIndexes and SimulatedLatency knobs
// are configuration: set them before sharing the instance across
// goroutines.
type Instance struct {
	mu   sync.RWMutex
	rels map[string]*Relation

	// UseIndexes controls whether the evaluator consults hash indexes;
	// turning it off degrades lookups to scans (used by the ablation
	// benchmarks).
	UseIndexes bool

	// SimulatedLatency, when non-zero, is added to every database query
	// to model the per-round-trip cost of a networked SQL server (the
	// paper's prototypes talk to MySQL over JDBC, where this cost
	// dominates and makes the reported curves linear in the number of
	// queries). Off by default; cmd/coordbench exposes it as -latency.
	SimulatedLatency time.Duration

	queries int64 // number of conjunctive queries answered (atomic)

	// version counts schema changes (AddRelation/CreateRelation);
	// compiled plans record it and retire themselves when it moves.
	version atomic.Uint64
	plans   planCache
}

// NewInstance returns an empty database instance with indexing enabled.
func NewInstance() *Instance {
	return &Instance{rels: map[string]*Relation{}, UseIndexes: true}
}

// AddRelation registers a relation; it replaces any previous relation of
// the same name. It invalidates every compiled plan (plans hold
// resolved relation pointers).
func (in *Instance) AddRelation(r *Relation) {
	in.mu.Lock()
	in.rels[r.Name] = r
	in.mu.Unlock()
	in.version.Add(1)
}

// CreateRelation creates, registers and returns an empty relation.
func (in *Instance) CreateRelation(name string, attrs ...string) *Relation {
	r := NewRelation(name, attrs...)
	in.AddRelation(r)
	return r
}

// Relation looks up a relation by name.
func (in *Instance) Relation(name string) (*Relation, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	r, ok := in.rels[name]
	return r, ok
}

// Schema returns relation name -> arity for every relation.
func (in *Instance) Schema() map[string]int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := map[string]int{}
	for n, r := range in.rels {
		out[n] = r.Arity()
	}
	return out
}

// RelationNames returns the sorted relation names.
func (in *Instance) RelationNames() []string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	var out []string
	for n := range in.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// QueriesIssued returns how many conjunctive queries have been answered
// since the last ResetCounters.
func (in *Instance) QueriesIssued() int64 { return atomic.LoadInt64(&in.queries) }

// ResetCounters zeroes the query counter.
func (in *Instance) ResetCounters() { atomic.StoreInt64(&in.queries, 0) }

func (in *Instance) countQuery() {
	atomic.AddInt64(&in.queries, 1)
	if in.SimulatedLatency > 0 {
		time.Sleep(in.SimulatedLatency)
	}
}

// Domain returns every constant appearing anywhere in the instance,
// sorted. Coordinating-set assignments draw values from this domain.
func (in *Instance) Domain() []eq.Value {
	in.mu.RLock()
	rels := make([]*Relation, 0, len(in.rels))
	for _, r := range in.rels {
		rels = append(rels, r)
	}
	in.mu.RUnlock()
	seen := map[eq.Value]bool{}
	for _, r := range rels {
		r.mu.RLock()
		for _, t := range r.tuples {
			for _, v := range t {
				seen[v] = true
			}
		}
		r.mu.RUnlock()
	}
	out := make([]eq.Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
