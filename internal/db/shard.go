package db

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"entangled/internal/eq"
	"entangled/internal/unify"
)

// Hash is the one placement hash: FNV-1a over the key's bytes. Shard
// placement here and ring placement in internal/cluster both call it,
// so a value's position is the same function everywhere.
func Hash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// shardIndex routes a hash-column value to a shard: Hash reduced modulo
// the shard count. Both tuple placement (ShardedRelation.Insert) and
// lookup routing (the evaluator, Contains, Route) must use this one
// function, or the placement invariant breaks.
func shardIndex(v eq.Value, k int) int {
	return int(Hash(string(v)) % uint32(k))
}

// PlaceQueries is the routing contract shared by shards and the cluster
// ring: a request has a single place when every body atom of every
// query pins its relation's key column (keyOf) to a constant and place
// maps all those constants to one spot. Any other shape — an unplaced
// relation, a variable in the key column, constants that disagree, no
// body atoms at all — returns ok=false, and the caller serves the
// request against the whole store.
func PlaceQueries[P comparable](qs []eq.Query, keyOf func(rel string) (int, bool), place func(eq.Value) P) (target P, ok bool) {
	var none P
	for _, q := range qs {
		for _, a := range q.Body {
			key, known := keyOf(a.Rel)
			if !known || key >= len(a.Args) || a.Args[key].IsVar() {
				return none, false
			}
			p := place(a.Args[key].Const())
			if !ok {
				target, ok = p, true
			} else if p != target {
				return none, false
			}
		}
	}
	return target, ok
}

// ShardedInstance hash-partitions every relation's tuples across K
// plain Instance shards: a tuple lives on the shard selected by hashing
// its relation's designated hash column. It implements the same Store
// read surface as Instance — Contains, Solve/SolveAll/Satisfiable/
// SolveUnder, Domain, the query counters — so the coordination
// algorithms and the engine run unmodified against it.
//
// The point of sharding is lock granularity: a plain Instance
// serialises every writer against every reader of a relation on one
// RWMutex, while a sharded relation spreads that traffic over K
// independent locks. A conjunctive query read-locks only the shard
// parts it can actually touch — for an atom whose hash column is a
// constant, exactly one part — so writers to other shards proceed
// untouched. Queries whose atoms do not bind the hash column remain
// correct: they lock and probe every part (scatter-gather).
//
// A ShardedInstance is safe for concurrent use. Schema changes
// (CreateRelation) must not race with queries, matching Instance.
type ShardedInstance struct {
	mu     sync.RWMutex
	shards []*Instance
	keys   map[string]int // relation name -> hash column

	latency time.Duration
	queries int64 // cross-shard conjunctive queries answered (atomic)

	// version counts schema changes (CreateRelation); cross-shard
	// compiled plans record it and retire themselves when it moves.
	version atomic.Uint64
	planner // Solve, SolveAll, Satisfiable, SolveUnder, PlanStats
}

// NewShardedInstance returns an empty instance partitioned across k
// shards (k < 1 is treated as 1).
func NewShardedInstance(k int) *ShardedInstance {
	if k < 1 {
		k = 1
	}
	shards := make([]*Instance, k)
	for i := range shards {
		shards[i] = NewInstance()
	}
	sh := &ShardedInstance{shards: shards, keys: map[string]int{}}
	sh.src = sh
	return sh
}

// NumShards returns the shard count K.
func (sh *ShardedInstance) NumShards() int { return len(sh.shards) }

// HashColumns returns a copy of the relation -> hash-column map: the
// per-relation column whose value places a tuple (and routes a
// request). Cluster placement reuses it so nodes and in-process shards
// partition by the same columns.
func (sh *ShardedInstance) HashColumns() map[string]int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m := make(map[string]int, len(sh.keys))
	for name, col := range sh.keys {
		m[name] = col
	}
	return m
}

// Shard returns the i-th underlying Instance. Callers must respect the
// placement invariant when writing through it directly.
func (sh *ShardedInstance) Shard(i int) *Instance { return sh.shards[i] }

// SetSimulatedLatency sets the per-query simulated round-trip cost on
// the cross-shard path and on every shard (see
// Instance.SimulatedLatency). Configure before sharing.
func (sh *ShardedInstance) SetSimulatedLatency(d time.Duration) {
	sh.latency = d
	for _, s := range sh.shards {
		s.SimulatedLatency = d
	}
}

// ShardedRelation is the write handle for one hash-partitioned
// relation: it owns the name, the hash column and the K per-shard
// parts, and routes every inserted tuple to the part its hash-column
// value selects.
type ShardedRelation struct {
	Name  string
	Key   int // hash column
	parts []*Relation
}

// CreateRelation creates (replacing any previous relation of the same
// name) a relation hash-partitioned on column hashCol across every
// shard, and returns its write handle.
func (sh *ShardedInstance) CreateRelation(name string, hashCol int, attrs ...string) *ShardedRelation {
	if hashCol < 0 || hashCol >= len(attrs) {
		panic(fmt.Sprintf("db: %s: hash column %d out of range for arity %d", name, hashCol, len(attrs)))
	}
	parts := make([]*Relation, len(sh.shards))
	for i, s := range sh.shards {
		parts[i] = s.CreateRelation(name, attrs...)
	}
	sh.mu.Lock()
	sh.keys[name] = hashCol
	sh.mu.Unlock()
	sh.version.Add(1)
	return &ShardedRelation{Name: name, Key: hashCol, parts: parts}
}

// keyOf returns the hash column of a registered relation.
func (sh *ShardedInstance) keyOf(name string) (int, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	col, ok := sh.keys[name]
	return col, ok
}

// Insert routes the tuple to the shard owning its hash-column value.
func (r *ShardedRelation) Insert(vals ...eq.Value) {
	if len(vals) != len(r.parts[0].Attrs) {
		panic(fmt.Sprintf("db: %s expects %d columns, got %d", r.Name, len(r.parts[0].Attrs), len(vals)))
	}
	r.parts[shardIndex(vals[r.Key], len(r.parts))].Insert(vals...)
}

// BuildIndex creates (or rebuilds) a hash index on the given column of
// every part.
func (r *ShardedRelation) BuildIndex(col int) {
	for _, p := range r.parts {
		p.BuildIndex(col)
	}
}

// RelationNames returns the sorted relation names.
func (sh *ShardedInstance) RelationNames() []string { return sh.shards[0].RelationNames() }

// QueriesIssued returns the total conjunctive queries answered since
// the last ResetCounters: cross-shard queries plus every shard's own
// count (single-shard routed queries land on the shard's counter).
func (sh *ShardedInstance) QueriesIssued() int64 {
	n := atomic.LoadInt64(&sh.queries)
	for _, s := range sh.shards {
		n += s.QueriesIssued()
	}
	return n
}

// ResetCounters zeroes the cross-shard and every per-shard counter.
func (sh *ShardedInstance) ResetCounters() {
	atomic.StoreInt64(&sh.queries, 0)
	for _, s := range sh.shards {
		s.ResetCounters()
	}
}

func (sh *ShardedInstance) countQuery() {
	atomic.AddInt64(&sh.queries, 1)
	if sh.latency > 0 {
		time.Sleep(sh.latency)
	}
}

// Domain returns every constant appearing in any shard, sorted. It
// equals the Domain of an unsharded instance holding the same tuples.
func (sh *ShardedInstance) Domain() []eq.Value {
	seen := map[eq.Value]bool{}
	for _, s := range sh.shards {
		for _, v := range s.Domain() {
			seen[v] = true
		}
	}
	out := make([]eq.Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Contains reports whether the ground atom denotes a stored tuple,
// checking only the shard its hash-column value routes to. Like
// Instance.Contains it does not count as a query.
func (sh *ShardedInstance) Contains(a eq.Atom) bool {
	key, ok := sh.keyOf(a.Rel)
	if !ok || key >= len(a.Args) {
		return false
	}
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return sh.shards[shardIndex(a.Args[key].Const(), len(sh.shards))].Contains(a)
}

func (sh *ShardedInstance) schemaVersions() []uint64 {
	vers := make([]uint64, len(sh.shards)+1)
	vers[0] = sh.version.Load()
	for i, s := range sh.shards {
		vers[i+1] = s.version.Load()
	}
	return vers
}

func (sh *ShardedInstance) resolve(name string) ([]*Relation, int, error) {
	key, ok := sh.keyOf(name)
	if !ok {
		return nil, 0, fmt.Errorf("%w: unknown relation %s", ErrSchema, name)
	}
	parts := make([]*Relation, len(sh.shards))
	for i, s := range sh.shards {
		r, ok := s.Relation(name)
		if !ok {
			return nil, 0, fmt.Errorf("db: relation %s missing from shard %d", name, i)
		}
		parts[i] = r
	}
	return parts, key, nil
}

// planValid checks a cached plan against the sharded store's schema
// versions and every compiled-against part's version.
func (sh *ShardedInstance) planValid(p *plan) bool {
	if len(p.instVersions) != len(sh.shards)+1 || p.instVersions[0] != sh.version.Load() {
		return false
	}
	for i, s := range sh.shards {
		if p.instVersions[i+1] != s.version.Load() {
			return false
		}
	}
	return p.relsValid()
}

// Route inspects a request's query set and, when every body atom pins
// its relation's hash column to a constant and all those constants hash
// to one shard, returns a single-shard view serving the whole request
// from that shard: solves touch only that shard's locks, while Domain
// and the counters still reflect the whole instance (so results —
// including the Definition-1 fallback value — are identical to a
// cross-shard run). The second return is false when the request is not
// single-shard routable; callers then use the ShardedInstance itself,
// which is always correct.
//
// Routing lives here as a capability, but the engine decides when to
// apply it (per request, in CoordinateMany) — see the package engine
// docs for why the db layer never routes implicitly.
func (sh *ShardedInstance) Route(qs []eq.Query) (Store, bool) {
	target, ok := PlaceQueries(qs, sh.keyOf, func(v eq.Value) int { return shardIndex(v, len(sh.shards)) })
	if !ok {
		return nil, false
	}
	return &shardView{Store: sh, shard: sh.shards[target]}, true
}

// shardView is the Store a routed request runs against: the queries a
// request asks go to one shard (whose relation locks are the only ones
// touched), while Domain, Contains, the counters and Satisfiable, which
// no request asks, are the embedded parent's, so observable results
// match a cross-shard run. The parent is embedded as a Store, so the
// view offers no Route of its own.
type shardView struct {
	Store
	shard *Instance
}

func (v *shardView) Solve(body []eq.Atom) (Binding, bool, error) { return v.shard.Solve(body) }

func (v *shardView) SolveAll(body []eq.Atom, limit int) ([]Binding, error) {
	return v.shard.SolveAll(body, limit)
}

func (v *shardView) SolveUnder(body []eq.Atom, s *unify.Subst) (Binding, bool, error) {
	return v.shard.SolveUnder(body, s)
}
