package db

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"entangled/internal/eq"
)

// MutationKind discriminates store mutations.
type MutationKind uint8

const (
	// MutCreate creates (replacing any previous relation of the same
	// name) a relation. On a sharded store HashCol selects the hash
	// column; plain instances ignore it but the field is always
	// journaled, so one mutation stream replays into either store kind.
	MutCreate MutationKind = iota + 1
	// MutInsert appends one tuple to a relation.
	MutInsert
	// MutIndex builds (or rebuilds) a hash index on one column.
	MutIndex
)

// String names the kind for logs and the JSON wire format.
func (k MutationKind) String() string {
	switch k {
	case MutCreate:
		return "create"
	case MutInsert:
		return "insert"
	case MutIndex:
		return "index"
	}
	return fmt.Sprintf("mutation(%d)", uint8(k))
}

// Mutation is one replayable store write: the unit of the durable
// write-ahead log (internal/persist) and of DumpMutations snapshots.
// Applying the same mutation sequence to two empty stores of the same
// shape yields stores that answer every query identically — including
// binding order, because tuple order is part of the stream.
type Mutation struct {
	Kind MutationKind
	Rel  string
	// Attrs names the columns (MutCreate).
	Attrs []string
	// HashCol is the hash-partition column (MutCreate; ignored by plain
	// instances).
	HashCol int
	// Col is the indexed column (MutIndex).
	Col int
	// Tuple is the inserted row (MutInsert).
	Tuple []eq.Value
}

// MCreate builds a create-relation mutation.
func MCreate(rel string, hashCol int, attrs ...string) Mutation {
	return Mutation{Kind: MutCreate, Rel: rel, HashCol: hashCol, Attrs: attrs}
}

// MInsert builds an insert mutation.
func MInsert(rel string, vals ...eq.Value) Mutation {
	return Mutation{Kind: MutInsert, Rel: rel, Tuple: vals}
}

// MIndex builds a build-index mutation.
func MIndex(rel string, col int) Mutation {
	return Mutation{Kind: MutIndex, Rel: rel, Col: col}
}

// String renders the mutation compactly for logs.
func (m Mutation) String() string {
	switch m.Kind {
	case MutCreate:
		return fmt.Sprintf("create %s%v hash=%d", m.Rel, m.Attrs, m.HashCol)
	case MutInsert:
		return fmt.Sprintf("insert %s%v", m.Rel, m.Tuple)
	case MutIndex:
		return fmt.Sprintf("index %s col=%d", m.Rel, m.Col)
	}
	return fmt.Sprintf("mutation(%d) %s", uint8(m.Kind), m.Rel)
}

// mutationJSON is the wire shape of a mutation: kind as its tag string
// so logs stay greppable and the decoder rejects unknown kinds.
type mutationJSON struct {
	Kind    string     `json:"k"`
	Rel     string     `json:"rel"`
	Attrs   []string   `json:"attrs,omitempty"`
	HashCol int        `json:"hash,omitempty"`
	Col     int        `json:"col,omitempty"`
	Tuple   []eq.Value `json:"t,omitempty"`
}

// MarshalJSON encodes the mutation for the durable log.
func (m Mutation) MarshalJSON() ([]byte, error) {
	if m.Kind < MutCreate || m.Kind > MutIndex {
		return nil, fmt.Errorf("db: encoding unknown mutation kind %d", m.Kind)
	}
	return json.Marshal(mutationJSON{
		Kind:    m.Kind.String(),
		Rel:     m.Rel,
		Attrs:   m.Attrs,
		HashCol: m.HashCol,
		Col:     m.Col,
		Tuple:   m.Tuple,
	})
}

// UnmarshalJSON decodes the mutation wire shape.
func (m *Mutation) UnmarshalJSON(data []byte) error {
	var w mutationJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	switch w.Kind {
	case "create":
		m.Kind = MutCreate
	case "insert":
		m.Kind = MutInsert
	case "index":
		m.Kind = MutIndex
	default:
		return fmt.Errorf("db: unknown mutation kind %q", w.Kind)
	}
	if w.Rel == "" {
		return fmt.Errorf("db: mutation without relation name")
	}
	m.Rel = w.Rel
	m.Attrs = w.Attrs
	m.HashCol = w.HashCol
	m.Col = w.Col
	m.Tuple = w.Tuple
	return nil
}

// WriteStore is the mutation surface of a store: the read surface plus
// a typed, replayable write path. Both *Instance and *ShardedInstance
// implement it, as does the durable persist.Backend (which journals
// every applied mutation). Writers that talk WriteStore instead of the
// concrete types work unchanged against any backend, and their write
// history can be journaled, snapshotted and replayed.
//
// Each mutation validates before mutating: a failed one changes
// nothing, so one mutation stream replays without partial effects.
type WriteStore interface {
	Store
	// Apply performs a batch in order up to the first mutation that
	// fails, returned as a *MutationError naming it. Unknown relations,
	// arity mismatches and out-of-range columns are errors (not panics
	// — mutations cross trust boundaries: logs, wires, fuzzers).
	Apply(ms ...Mutation) error
	// DumpMutations streams a mutation sequence that rebuilds the
	// store's current contents into an empty store: relations in sorted
	// name order, each as create, its tuples (in an order the store's
	// own Apply reproduces), then its indexes in column order. Callers
	// must quiesce writers for the dump to be a consistent snapshot.
	DumpMutations(yield func(Mutation) error) error
	// RelationNames returns the sorted relation names.
	RelationNames() []string
}

var (
	_ WriteStore = (*Instance)(nil)
	_ WriteStore = (*ShardedInstance)(nil)
)

// MutationError is Apply's failure: mutation Index of the batch failed
// with Err after every one before it was applied. It reads as Err.
type MutationError struct {
	Index int
	Err   error
}

func (e *MutationError) Error() string { return e.Err.Error() }
func (e *MutationError) Unwrap() error { return e.Err }

// applyEach applies ms through one, stopping at the first failure.
func applyEach(ms []Mutation, one func(Mutation) error) error {
	for i, m := range ms {
		if err := one(m); err != nil {
			return &MutationError{Index: i, Err: err}
		}
	}
	return nil
}

// ApplyAll applies a mutation sequence as one batch, naming the
// mutation that stopped it.
func ApplyAll(w WriteStore, ms []Mutation) error {
	err := w.Apply(ms...)
	var me *MutationError
	if errors.As(err, &me) {
		return fmt.Errorf("db: applying mutation %d (%s): %w", me.Index, ms[me.Index], err)
	}
	return err
}

// Router is implemented by stores that can route a whole request's
// query set to a narrower Store serving it alone (ShardedInstance, and
// wrappers like persist.Backend that delegate to one). The engine
// routes through this seam instead of naming concrete store types.
type Router interface {
	Route(qs []eq.Query) (Store, bool)
}

// PlanStatser is implemented by stores that expose compiled-plan-cache
// counters. Wrappers aggregate their inner store's counters.
type PlanStatser interface {
	PlanStats() PlanCacheStats
}

// AggregatePlanStats sums the plan-cache counters of the caches behind
// a store: a sharded store's cross-shard cache plus every shard's, or a
// plain instance's own. Wrappers that implement PlanStatser (e.g.
// persist.Backend) report through it. The second return is false when
// the store exposes no plan cache.
func AggregatePlanStats(store Store) (PlanCacheStats, bool) {
	switch s := store.(type) {
	case *Instance:
		return s.PlanStats(), true
	case *ShardedInstance:
		st := s.PlanStats()
		for i := 0; i < s.NumShards(); i++ {
			sub := s.Shard(i).PlanStats()
			st.Hits += sub.Hits
			st.Misses += sub.Misses
			st.Entries += sub.Entries
		}
		return st, true
	case PlanStatser:
		return s.PlanStats(), true
	}
	return PlanCacheStats{}, false
}

// Apply implements WriteStore on a plain instance; HashCol is ignored
// (there is one part).
func (in *Instance) Apply(ms ...Mutation) error { return applyEach(ms, in.apply) }

func (in *Instance) apply(m Mutation) error {
	switch m.Kind {
	case MutCreate:
		if len(m.Attrs) == 0 {
			return fmt.Errorf("db: create %s: no attributes", m.Rel)
		}
		in.CreateRelation(m.Rel, m.Attrs...)
		return nil
	case MutInsert:
		r, ok := in.Relation(m.Rel)
		if !ok {
			return fmt.Errorf("db: insert into unknown relation %s", m.Rel)
		}
		if len(m.Tuple) != r.Arity() {
			return fmt.Errorf("db: insert into %s: %d values for arity %d", m.Rel, len(m.Tuple), r.Arity())
		}
		r.Insert(m.Tuple...)
		return nil
	case MutIndex:
		r, ok := in.Relation(m.Rel)
		if !ok {
			return fmt.Errorf("db: index on unknown relation %s", m.Rel)
		}
		if m.Col < 0 || m.Col >= r.Arity() {
			return fmt.Errorf("db: index on %s: column %d out of range for arity %d", m.Rel, m.Col, r.Arity())
		}
		r.BuildIndex(m.Col)
		return nil
	}
	return fmt.Errorf("db: unknown mutation kind %d", m.Kind)
}

// DumpMutations implements WriteStore on a plain instance: tuples are
// emitted in insertion order, which Apply preserves.
func (in *Instance) DumpMutations(yield func(Mutation) error) error {
	for _, name := range in.RelationNames() {
		r, _ := in.Relation(name)
		if err := yield(MCreate(name, 0, append([]string(nil), r.Attrs...)...)); err != nil {
			return err
		}
		if err := r.Tuples(func(t Tuple) error {
			return yield(MInsert(name, t...))
		}); err != nil {
			return err
		}
		for _, col := range r.IndexedColumns() {
			if err := yield(MIndex(name, col)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Apply implements WriteStore on a sharded instance: inserts route to
// the shard their hash-column value selects, exactly like
// ShardedRelation.Insert.
func (sh *ShardedInstance) Apply(ms ...Mutation) error { return applyEach(ms, sh.apply) }

func (sh *ShardedInstance) apply(m Mutation) error {
	switch m.Kind {
	case MutCreate:
		if len(m.Attrs) == 0 {
			return fmt.Errorf("db: create %s: no attributes", m.Rel)
		}
		if m.HashCol < 0 || m.HashCol >= len(m.Attrs) {
			return fmt.Errorf("db: create %s: hash column %d out of range for arity %d", m.Rel, m.HashCol, len(m.Attrs))
		}
		sh.CreateRelation(m.Rel, m.HashCol, m.Attrs...)
		return nil
	case MutInsert:
		key, ok := sh.keyOf(m.Rel)
		if !ok {
			return fmt.Errorf("db: insert into unknown relation %s", m.Rel)
		}
		part, _ := sh.shards[0].Relation(m.Rel)
		if len(m.Tuple) != part.Arity() {
			return fmt.Errorf("db: insert into %s: %d values for arity %d", m.Rel, len(m.Tuple), part.Arity())
		}
		target, _ := sh.shards[shardIndex(m.Tuple[key], len(sh.shards))].Relation(m.Rel)
		target.Insert(m.Tuple...)
		return nil
	case MutIndex:
		if _, ok := sh.keyOf(m.Rel); !ok {
			return fmt.Errorf("db: index on unknown relation %s", m.Rel)
		}
		part, _ := sh.shards[0].Relation(m.Rel)
		if m.Col < 0 || m.Col >= part.Arity() {
			return fmt.Errorf("db: index on %s: column %d out of range for arity %d", m.Rel, m.Col, part.Arity())
		}
		for _, s := range sh.shards {
			r, _ := s.Relation(m.Rel)
			r.BuildIndex(m.Col)
		}
		return nil
	}
	return fmt.Errorf("db: unknown mutation kind %d", m.Kind)
}

// DumpMutations implements WriteStore on a sharded instance: each
// relation's tuples are emitted part by part in shard order. Replaying
// through Apply routes every tuple back to the shard that emitted it
// (same hash function, same shard count), appending in the same
// per-part order, so the rebuilt store answers identically — binding
// order included.
func (sh *ShardedInstance) DumpMutations(yield func(Mutation) error) error {
	for _, name := range sh.RelationNames() {
		key, _ := sh.keyOf(name)
		first, _ := sh.shards[0].Relation(name)
		if err := yield(MCreate(name, key, append([]string(nil), first.Attrs...)...)); err != nil {
			return err
		}
		for _, s := range sh.shards {
			r, _ := s.Relation(name)
			if err := r.Tuples(func(t Tuple) error {
				return yield(MInsert(name, t...))
			}); err != nil {
				return err
			}
		}
		for _, col := range first.IndexedColumns() {
			if err := yield(MIndex(name, col)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Tuples iterates the relation's tuples in insertion order under the
// read lock. Each yielded tuple is a view of the relation's storage, as
// Tuple returns: do not write through it.
func (r *Relation) Tuples(yield func(Tuple) error) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := 0; i < r.rows; i++ {
		if err := yield(r.tuple(i)); err != nil {
			return err
		}
	}
	return nil
}

// IndexedColumns returns the columns carrying a hash index, ascending.
func (r *Relation) IndexedColumns() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]int, 0, len(r.indexes))
	for col := range r.indexes {
		out = append(out, col)
	}
	sort.Ints(out)
	return out
}
