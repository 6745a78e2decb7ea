// Package db implements the in-memory relational database substrate.
//
// The paper's prototypes issue conjunctive queries to MySQL through
// JDBC; the algorithms treat the database purely as an oracle that
// answers conjunctive (select-project-join) queries under choose-1
// semantics and that can enumerate all answers. This package provides
// that oracle: named relations with hash indexes, one query evaluator
// (compiled plans, below), and counters of issued queries so that
// experiments report "number of database queries" exactly as the paper
// does.
//
// # Stores
//
// The Store interface is the read surface the coordination algorithms
// (internal/coord, internal/engine) evaluate against:
//
//   - Instance: one node — a registry of RWMutex-guarded relations,
//     safe for many concurrent readers with serialised writers.
//   - ShardedInstance: K Instances with every relation's tuples
//     hash-partitioned on a designated column. Same answers as an
//     Instance holding the same tuples, but a query read-locks only the
//     shard parts it can reach, so writer/reader contention drops by
//     roughly the shard count on key-routed traffic.
//   - Meter, a counting view over any Store (below), and Guard, which
//     fails each counted query its Check refuses (WithContext on ctx,
//     fault.NewStore on an injector); both embed the store they wrap.
//
// # Storage
//
// A Relation is one slab of values, and Tuple and Tuples hand out
// capped views of it that keep their values (see Relation). A hash
// index is a table of int32 row numbers with one link per row, walked
// in row order — the order a scan meets the same rows — so no answer
// depends on whether an index was used.
//
// # Sharding contract
//
// Tuple placement and lookup routing share one hash (Hash, FNV-1a;
// shardIndex reduces it modulo K): a tuple of relation R lives on shard
// Hash(t[R.hashCol]) mod K. The same Hash and the same routing walk
// (PlaceQueries) place sessions and batch requests on internal/cluster's
// ring, so the two placement layers cannot drift apart. The
// cross-shard evaluator exploits the invariant — an atom whose hash
// column is bound probes one part; anything else scatter-gathers over
// all parts — so every conjunctive query is answered exactly as on an
// unsharded instance: same satisfiability, same answer set. Only the
// enumeration order of answers (hence which witness a choose-1 Solve
// picks) may differ. ShardedInstance.Route additionally offers a
// single-shard view for query sets whose body atoms all pin one shard;
// the engine uses it as a fast path.
//
// # Compiled plans
//
// Queries execute through compiled plans (plan.go, exec.go): the join
// strategy for a body shape — atom order, integer slots for variables,
// probe-candidate columns, lock order, shard routing — is derived once
// and cached on the store, and the hot loop runs over a []eq.Value
// frame with no map operations; an answer leaves as a Binding, one
// frame of values by slot, a slot being a variable by first
// occurrence — under SolveUnder, an unbound class of the substitution.
// A binding carries no names: the caller holds the body. An answer
// fills a frame of its length that an earlier answer's owner handed
// back (Binding.Release), allocating one only when none is free; a
// binding never released is garbage like any other value. A shape
// abstracts constant values and variable names, so the coordination
// algorithms' re-issued bodies (thousands of SolveUnder calls over the
// same shapes) hit the cache; SolveUnder resolves each argument by its
// position through the substitution's term table (unify.Subst.Term) at
// bind time, building neither a rewritten body nor a string. Cache
// entries are validated against
// store and relation versions on every hit, so AddRelation /
// CreateRelation and BuildIndex invalidate stale plans lazily; Insert
// never invalidates (data growth cannot break a plan, only age its
// join-order tie-breaks). Plans are the only evaluator a binary links.
// The seed's backtracking evaluator survives as the tests' reference,
// dbtest.Oracle, written against this package's exported read API
// alone; the equivalence property tests hold plans to its answer
// multisets, ok flags and query counts.
//
// # A failed query names its empty atom
//
// Solve and SolveUnder with no answer name, by Binding.Empty, the first
// body atom that shares no variable with the rest of the body (under a
// substitution, no class) and matches no row on its own. A plan lists
// these lone atoms; only a failed execution probes them, each alone.
// The atom depends on the resolved body and the rows alone, so every
// store and the oracle name the same one, and decorators pass it on. A
// query that does not fit the schema fails with ErrSchema instead.
//
// # Metering contract
//
// Each of Solve, SolveAll, Satisfiable, SolveUnder and Project (a
// batch of questions, as one statement asks them) counts as exactly one
// query; Contains and Domain are free (verifier primitives). A plan
// execution is one query however many parts it probes. Instance and ShardedInstance
// count into a shared aggregate (QueriesIssued), which concurrent
// requests pollute for one another. Meter wraps any Store with a
// private counter so a single request's cost is exact under concurrent
// serving: the coordination algorithms wrap their store in a fresh
// Meter per run and report its QueriesIssued as Result.DBQueries.
// Project is an Instance method outside the Store interface; its one
// caller, the Consistent Coordination Algorithm, counts the calls it
// makes.
//
// # Project
//
// Project yields, allocating nothing, the full row where each distinct
// projection of the matching rows first occurs, in row order whether or
// not an index narrowed the scan: a capped, stable view, yielded under
// the relation's read lock, so yield must not call into the instance.
// A column outside the arity, in cols or in any question's where, is an
// error, never a panic, found before the batch is counted: it yields
// nothing.
package db
