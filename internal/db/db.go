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
// BuildIndex) are serialised. Name and Attrs must not be
// changed once the relation is visible to other goroutines.
//
// The rows are one slab of values, row-major, Arity() to a row. A Tuple
// the relation hands out is a view of its row, capped there, so an
// append to it copies instead of writing into the next row. The slab
// only grows in place, so a view keeps its values for as long as it is
// held.
type Relation struct {
	Name  string
	Attrs []string // attribute names; len(Attrs) is the arity

	mu      sync.RWMutex
	vals    []eq.Value // row i is vals[i*arity : (i+1)*arity]
	rows    int
	indexes map[int]*index // column -> hash index

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
		indexes: map[int]*index{},
	}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Attrs) }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rows
}

// Insert appends a tuple; it must match the relation's arity.
func (r *Relation) Insert(vals ...eq.Value) {
	if len(vals) != len(r.Attrs) {
		panic(fmt.Sprintf("db: %s expects %d columns, got %d", r.Name, len(r.Attrs), len(vals)))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.vals = append(r.vals, vals...)
	r.rows++
	for _, idx := range r.indexes {
		idx.add(r, r.rows-1)
	}
}

// BuildIndex creates (or rebuilds) a hash index on the given column.
// It invalidates any compiled plan that touches this relation (plans
// resolve their index probes against the relation's version).
func (r *Relation) BuildIndex(col int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := &index{col: col, slots: make([]int32, 8), next: make([]int32, 0, r.rows)}
	for row := 0; row < r.rows; row++ {
		idx.add(r, row)
	}
	r.indexes[col] = idx
	r.version.Add(1)
}

// tuple returns row i's view; the caller holds the lock.
func (r *Relation) tuple(i int) Tuple {
	a := len(r.Attrs)
	return r.vals[i*a : (i+1)*a : (i+1)*a]
}

// Tuple returns the i-th tuple, a view of the relation's storage: do
// not write through it.
func (r *Relation) Tuple(i int) Tuple {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tuple(i)
}

// index is a hash index on one column that allocates nothing per value
// or per row. slots is an open-addressing table (Hash, linear probing,
// a power of two long, 8 slots or more, at most 3/4 full) holding 1 +
// the last row of each distinct value, 0 for empty. next links every
// row to the following row with the same value, and a value's last row
// links back to its first: a bucket is walked in row order from
// next[last], and an insert joins the circle at its end in O(1).
type index struct {
	col   int
	slots []int32
	next  []int32 // by row
	used  int     // occupied slots
}

// find returns the slot holding v's bucket, or the empty slot where it
// belongs.
func (x *index) find(r *Relation, v eq.Value) int {
	h := Hash(string(v))
	mask := uint32(len(x.slots) - 1)
	for at := (h ^ h>>16) & mask; ; at = (at + 1) & mask {
		if s := x.slots[at]; s == 0 || r.tuple(int(s - 1))[x.col] == v {
			return int(at)
		}
	}
}

// bucket returns the first and last rows holding v, or -1 and -1 when
// no row does.
func (x *index) bucket(r *Relation, v eq.Value) (first, last int) {
	if last = int(x.slots[x.find(r, v)]) - 1; last < 0 {
		return -1, -1
	}
	return int(x.next[last]), last
}

// after returns the row following row in the bucket ending at last, or
// -1 past the end.
func (x *index) after(row, last int) int {
	if row == last {
		return -1
	}
	return int(x.next[row])
}

// add links row, the relation's last, to the end of its value's bucket.
func (x *index) add(r *Relation, row int) {
	if 4*(x.used+1) > 3*len(x.slots) {
		old := x.slots
		x.slots = make([]int32, 2*len(old))
		for _, s := range old {
			if s != 0 {
				x.slots[x.find(r, r.tuple(int(s - 1))[x.col])] = s
			}
		}
	}
	at := x.find(r, r.tuple(row)[x.col])
	if last := x.slots[at] - 1; last >= 0 {
		x.next = append(x.next, x.next[last])
		x.next[last] = int32(row)
	} else {
		x.next = append(x.next, int32(row))
		x.used++
	}
	x.slots[at] = int32(row) + 1
}

// Instance is a database instance: a set of relations plus counters that
// experiments read.
//
// An Instance is safe for concurrent use: the relation registry is
// guarded by an RWMutex, every relation carries its own RWMutex, and the
// query counter is atomic, so many goroutines may issue queries against
// one shared instance (the concurrent-engine serving path) while
// mutations are serialised. SimulatedLatency is configuration: set it
// before sharing the instance across goroutines. A column is probed
// through its hash index when BuildIndex gave it one and scanned
// otherwise.
type Instance struct {
	mu   sync.RWMutex
	rels map[string]*Relation

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
	planner // Solve, SolveAll, Satisfiable, SolveUnder, PlanStats
}

// NewInstance returns an empty database instance.
func NewInstance() *Instance {
	in := &Instance{rels: map[string]*Relation{}}
	in.src = in
	return in
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
		for _, v := range r.vals {
			seen[v] = true
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
