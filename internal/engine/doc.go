// Package engine serves coordination requests concurrently over one
// shared database store.
//
// A request is one run of the paper's SCC Coordination Algorithm (§4):
// a sequential walk of the condensation paying one database query per
// component (coord.SCCCoordinate). The engine's concurrency is across
// requests: CoordinateMany drains a batch of distinct query sets
// through a worker pool — the heavy-traffic serving shape, where many
// independent scenarios query one shared store. (A worker pool inside
// one request, running independent components concurrently, was
// measured and removed: DESIGN.md, "Design choices worth ablating", 7.)
//
// # Shard routing
//
// The engine accepts any db.Store. Over a *db.ShardedInstance it adds
// per-request routing: when every body atom of a request pins its
// relation's hash column to constants that all hash to one shard, the
// request is served against that shard alone (db.ShardedInstance.Route),
// so independent requests touch disjoint relation locks and writers to
// other shards never stall this request. Non-routable requests fall
// back to the cross-shard store, which is always correct. Routing
// lives here rather than in the db layer because only the serving
// layer sees request boundaries; the db layer answers any single query
// correctly without needing to know which request it belongs to.
//
// # Metering
//
// Result.DBQueries on every Response is exact for that request alone:
// each coord run counts its queries on a private db.Meter rather than
// reading a delta of the store's shared counter, so concurrent
// requests cannot pollute each other's counts. The store's aggregate
// QueriesIssued still totals all traffic and remains the right way to
// meter a whole batch.
//
// # Compiled plans
//
// The engine adds nothing for query planning, by design: compiled
// query plans live on the store (db.Instance / db.ShardedInstance
// carry a per-store plan cache keyed by body shape), so every
// CoordinateMany worker — and every routed shard view and per-request
// db.Meter wrapped around the store — shares the same hot plans across
// requests. A serving fleet re-issuing the workload's body shapes
// compiles each shape once per schema version, not once per request;
// db.Instance.PlanStats exposes the hit rate (cmd/coordserve prints
// it when it drains).
//
// # Streaming sessions
//
// NewSession opens a stream.Session over the engine's store for
// traffic that arrives one query at a time rather than as a finished
// batch: joins and leaves re-coordinate incrementally (only the dirty
// region of the condensation DAG is re-solved), with exact per-event
// metering. Sessions are not shard-routed — their query set
// accumulates over time, so no single shard is pinned up front.
package engine
