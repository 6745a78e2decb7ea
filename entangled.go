// Package entangled is a Go implementation of entangled-query
// evaluation for data-driven social coordination, reproducing
// "The Complexity of Social Coordination" (Mamouras, Oren, Seeman, Kot,
// Gehrke; PVLDB 5(11), 2012).
//
// An entangled query {P} H :- B augments a conjunctive query (head H,
// body B) with postconditions P that reference other users' answers:
// "book me on the same flight as Chris". Evaluating a set of such
// queries means finding a coordinating set — a subset whose answers
// jointly satisfy every member's postconditions (Definition 1 of the
// paper).
//
// The package re-exports the library's stable surface:
//
//   - the query model and parser (internal/eq),
//   - the in-memory relational substrate, including hash-partitioned
//     sharded stores and exact per-request query metering
//     (internal/db),
//   - durable storage: a snapshot + write-ahead-log backend that logs
//     session events too, with crash recovery (internal/persist),
//   - the concurrent serving engine with per-shard request routing
//     (internal/engine),
//   - streaming coordination sessions with incremental ingest and
//     delta re-coordination (internal/stream),
//   - the HTTP/JSON coordination service and its typed client
//     (internal/server, internal/client; wire format in internal/api),
//   - the SCC Coordination Algorithm for safe but non-unique sets (§4),
//   - the Consistent Coordination Algorithm for unsafe, A-consistent
//     sets (§5),
//   - the online coordination module (internal/system), and
//   - the hardness reductions of §3 (internal/sat) for experimentation.
//
// See README.md for a tour and examples/ for runnable programs.
package entangled

import (
	"entangled/internal/client"
	"entangled/internal/consistent"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/persist"
	"entangled/internal/server"
	"entangled/internal/stream"
	"entangled/internal/system"
)

// Core model types, re-exported.
type (
	// Value is a constant from the database domain.
	Value = eq.Value
	// Term is an atom argument: a variable or a constant.
	Term = eq.Term
	// Atom is a relational atom R(t1, ..., tn).
	Atom = eq.Atom
	// Query is an entangled query {Post} Head :- Body.
	Query = eq.Query

	// Instance is an in-memory relational database.
	Instance = db.Instance
	// Relation is a named table with hash indexes.
	Relation = db.Relation
	// Tuple is a database row.
	Tuple = db.Tuple
	// Store is the conjunctive-query read surface every coordination
	// algorithm evaluates against; *Instance and *ShardedInstance both
	// implement it.
	Store = db.Store
	// ShardedInstance hash-partitions every relation across K shards
	// behind the same Store surface.
	ShardedInstance = db.ShardedInstance
	// ShardedRelation is the write handle of one hash-partitioned
	// relation.
	ShardedRelation = db.ShardedRelation
	// Meter is a per-request counting view over a Store.
	Meter = db.Meter
	// WriteStore is the mutation surface over a Store: every change is
	// a typed, replayable Mutation.
	WriteStore = db.WriteStore
	// Mutation is one replayable store change (create, insert, index).
	Mutation = db.Mutation

	// PersistBackend is the durable store: a WriteStore whose mutation
	// stream and named sessions' events are journaled to one snapshot +
	// write-ahead log on disk for crash recovery (internal/persist).
	PersistBackend = persist.Backend
	// PersistOptions configures OpenPersist (shard count, fsync policy,
	// rotation and compaction thresholds).
	PersistOptions = persist.Options
	// SyncPolicy says when WAL appends reach stable storage.
	SyncPolicy = persist.SyncPolicy

	// Engine serves batches of coordination requests concurrently over
	// one shared Store, routing each request to the single shard its
	// bodies pin when the store is sharded.
	Engine = engine.Engine
	// EngineOptions configures NewEngine.
	EngineOptions = engine.Options
	// Request is one unit of Engine.CoordinateMany work.
	Request = engine.Request
	// Response pairs a Request's outcome with its ID; its
	// Result.DBQueries is exact per request.
	Response = engine.Response

	// Result is a coordinating set with its witnessing assignment.
	Result = coord.Result
	// Options configures Coordinate.
	Options = coord.Options

	// ConsistentQuery is one user's A-consistent coordination request
	// for the application-specific algorithm of §5.
	ConsistentQuery = consistent.Query
	// ConsistentSchema describes the coordination application: the data
	// relation, the coordination attribute set A, and the friendship
	// relation.
	ConsistentSchema = consistent.Schema
	// ConsistentResult is the §5 algorithm's output.
	ConsistentResult = consistent.Result
	// Pref is a per-attribute preference (constant or wildcard).
	Pref = consistent.Pref
	// Partner is a coordination-partner slot.
	Partner = consistent.Partner

	// Coordinator is the online coordination module of §6.1.
	Coordinator = system.Coordinator
	// Outcome reports what an online submission achieved.
	Outcome = system.Outcome

	// Session is a streaming coordination session: queries join and
	// leave one at a time with incremental re-coordination and exact
	// per-event metering.
	Session = stream.Session
	// SessionOptions configures NewSession.
	SessionOptions = stream.Options
	// SessionEvent is one streaming input (a join or a leave).
	SessionEvent = stream.Event
	// SessionUpdate reports one processed event's outcome and cost.
	SessionUpdate = stream.Update

	// Server exposes an Engine over HTTP/JSON: batch coordination,
	// named streaming sessions behind a concurrent registry, and the
	// /healthz + /metrics operational surface (internal/server).
	Server = server.Server
	// ServerOptions configures NewServer (batch caps, queue and
	// mailbox bounds, session idle timeout).
	ServerOptions = server.Options
	// Client is the typed Go client for the coordination service; its
	// errors reconstruct the in-process sentinels across the network
	// (internal/client).
	Client = client.Client
	// ClientOptions configures NewClient.
	ClientOptions = client.Options
)

// C builds a constant term.
func C(v Value) Term { return eq.C(v) }

// V builds a variable term.
func V(name string) Term { return eq.V(name) }

// NewAtom builds an atom over relation rel.
func NewAtom(rel string, args ...Term) Atom { return eq.NewAtom(rel, args...) }

// Parse parses one entangled query from the textual format of the eq
// package.
func Parse(src string) (Query, error) { return eq.Parse(src) }

// ParseSet parses a whole query set.
func ParseSet(src string) ([]Query, error) { return eq.ParseSet(src) }

// NewInstance creates an empty database instance.
func NewInstance() *Instance { return db.NewInstance() }

// NewShardedInstance creates an empty database hash-partitioned across
// k shards.
func NewShardedInstance(k int) *ShardedInstance { return db.NewShardedInstance(k) }

// NewEngine creates a concurrent serving engine over a shared store.
func NewEngine(store Store, opts EngineOptions) *Engine { return engine.New(store, opts) }

// OpenPersist opens (or creates) a durable data directory and recovers
// its store by replaying the newest snapshot and the write-ahead log.
// The returned backend is a WriteStore: serve over it directly, and
// pass it as ServerOptions.Persist so admitted session events are
// journaled and recovered too.
func OpenPersist(dir string, opts PersistOptions) (*PersistBackend, error) {
	return persist.Open(dir, opts)
}

// NewSession opens a streaming coordination session over a shared
// store: arrivals and departures re-coordinate incrementally, touching
// only the components their event dirties (see internal/stream).
func NewSession(store Store, opts SessionOptions) *Session { return stream.New(store, opts) }

// NewServer exposes an engine over HTTP/JSON. Serve the returned
// http.Handler with any http.Server and call its Close on shutdown to
// drain admitted work. The error return is session recovery failing,
// which only a server with ServerOptions.Persist can hit.
func NewServer(e *Engine, opts ServerOptions) (*Server, error) { return server.New(e, opts) }

// NewClient returns a typed client for a coordination service at
// baseURL (e.g. "http://127.0.0.1:8080").
func NewClient(baseURL string, opts ClientOptions) (*Client, error) {
	return client.New(baseURL, opts)
}

// Coordinate runs the SCC Coordination Algorithm (§4) on a safe set of
// entangled queries: it finds a coordinating set whenever one exists and
// returns the largest one among the reachable-set candidates (nil when
// none exists). The returned Result.DBQueries is exact for this run
// even when the store serves concurrent traffic.
func Coordinate(qs []Query, store Store, opts Options) (*Result, error) {
	return coord.SCCCoordinate(qs, store, opts)
}

// CoordinateConsistent runs the Consistent Coordination Algorithm (§5)
// for A-consistent query sets, which handles unsafe sets as long as all
// users coordinate on the same attributes.
func CoordinateConsistent(sch ConsistentSchema, qs []ConsistentQuery, inst *Instance, opts consistent.Options) (*ConsistentResult, error) {
	return consistent.Coordinate(sch, qs, inst, opts)
}

// Verify checks a coordinating set against Definition 1 of the paper.
func Verify(qs []Query, set []int, values map[int]map[string]Value, store Store) error {
	return coord.Verify(qs, set, values, store)
}

// IsSafe reports whether every query's postconditions have at most one
// potential provider (Definition 2).
func IsSafe(qs []Query) bool { return coord.IsSafe(qs) }

// IsUnique reports whether a safe set's coordination graph is strongly
// connected (Definition 3).
func IsUnique(qs []Query) bool { return coord.IsUnique(qs) }

// NewCoordinator creates the online coordination module over inst.
func NewCoordinator(inst *Instance, opts Options) *Coordinator {
	return system.New(inst, opts)
}

// AllCandidates exposes every coordinating set the SCC algorithm
// discovers (the family {R(q)}), largest first, for callers with
// bespoke selection criteria.
func AllCandidates(qs []Query, inst *Instance, opts Options) ([]coord.CandidateSet, error) {
	return coord.AllCandidates(qs, inst, opts)
}

// Trace re-exports the SCC algorithm's step-by-step record; pass a
// fresh &Trace{} in Options.Trace and render it with its Render method.
type Trace = coord.Trace

// Load reads a database instance previously written with
// Instance.Save.
func Load(dir string) (*Instance, error) { return db.Load(dir) }
