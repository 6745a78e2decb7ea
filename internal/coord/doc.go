// Package coord implements the paper's coordination algorithms: the
// polynomial SCC Coordination Algorithm for safe query sets (§4-5),
// the Gupta et al. baseline for safe-and-unique sets, the
// single-connected solver of Theorem 3, and the exponential
// brute-force oracles used to cross-check them on small inputs.
//
// Every algorithm takes the database as a db.Store — a plain
// db.Instance, a hash-partitioned db.ShardedInstance, or any other
// implementation — and treats it purely as a conjunctive-query oracle.
// Algorithm control flow depends only on query outcomes
// (tuple found/not), which are identical across
// stores holding the same tuples, so the coordinating set (the team),
// the recorded Trace and the query count are store-independent; only
// the witnessing assignment may vary with the store's answer
// enumeration order (choose-1 semantics permit any witness, and
// Verify accepts all of them).
//
// SCCCoordinate, Incremental.Result and so every session report the
// largest member of the candidate family {R(q)}, and of equal sizes
// the lexicographically least sorted set, so the answer is a function
// of the input and not of the walk's order. They find it by searching
// the sets in that rank order and stopping at the first that grounds:
// a tuple that grounds a set grounds every set it contains. A caller
// with its own criterion — the paper's gold-status passengers and VIP
// clients — chooses from AllCandidates, the whole family in that
// order, found by the paper's bottom-up walk; the walk itself takes no
// selection hook.
//
// The walk asks the database one query per component it searches and
// nothing else: §6.1's provider cascade is graph work, and no body is
// probed on its own — one the database cannot satisfy is found by its
// component's search. A search that fails may name the query it failed
// on (db.Binding.Empty, search.ground): no set holding that query can
// ground, so the rank walk resolves every later one unsearched.
//
// # Metering contract
//
// Result.DBQueries is the paper's central cost metric: the number of
// conjunctive queries the run issued. Each entry point (SCCCoordinate,
// AllCandidates, GuptaCoordinate, SingleConnectedCoordinate, the
// BruteForce* oracles) wraps its store in a private db.Meter and
// counts on it, so the value is exact for that run alone even when
// many runs share one store concurrently (engine.CoordinateMany).
// Reading a delta of the store's aggregate counter — the pre-metering
// design — is wrong under concurrency and is not used anywhere.
//
// # Incremental coordination
//
// The batch entry points coordinate a finished set; Incremental is the
// resumable form for streaming traffic (internal/stream): queries Add
// and Remove one at a time, the extended graph is maintained
// incrementally (IncrementalGraph — the batch ExtendedGraph is its
// one-shot special case), and after each event only the condensation
// components whose reachable set changed are re-solved, with cached
// witnesses spliced for the rest, as far as the rank walk reaches. DeltaStats meters each event
// exactly; a quiesced Incremental matches a batch run over its live
// queries observationally (team, values, trace). Arrivals that would
// make the set unsafe are refused with ErrUnsafeArrival before any
// state changes, and Compact renumbers away tombstoned slots so
// long-lived streams stay O(live queries) — in place and for free: a
// query's cache key and traced name are its admission serial, not its
// slot, so renumbering re-grounds nothing. An event's bookkeeping —
// pruning, condensation, reach sets, cache keys — is integer work on
// scratch the coordinator keeps between events, so what an event
// allocates follows its dirty components, not the live set.
//
// The §4 walk has one home, Incremental.reconcile: a batch request
// (SCCCoordinate, AllCandidates) is a pooled Incremental refilled with
// the whole set and walked once, without an outcome cache, so batch and
// streaming runs cannot drift apart; the batch walk the package used to
// keep beside it is the reference its tests compare against
// (oracle_test.go). The §6.1 provider cascade has one home, cascade.run
// (prune.go), which Incremental and the Gupta baseline call, so prune
// events come out in one order everywhere. So has the §4 component
// search, search.ground (search.go): Incremental and the Gupta baseline
// unify a reachable set and ask the database about it there and
// nowhere else, on scratch that is reused from one component to the
// next. A substitution is scratch, not state: it is a
// function of the reachable set and the canonical edges, so no
// candidate and no cached outcome keeps one — the winner's is
// recomputed, without a database query, when its witness is read. A
// search unifies numbers: each query's variables are numbered once, on
// admission (varTable), and a name is read back off the query only
// where something is rendered — a trace, a witness.
//
// A grounded component's db.Binding has one owner, which releases its
// frame to db once the witness is read: a pooled Incremental when it is
// released, finishResult for the Gupta baseline and single-connection,
// a session where it evicts a cached outcome. A Result holds values,
// never a frame.
//
// A Result's value maps come from a pool that Result.Release refills.
// Only the holder of the last reference releases, and only the server
// does, once a batch reply is rendered; a result nobody releases — a
// session's, AllCandidates', an in-process caller's — keeps its maps,
// which go to the collector.
//
// The package's sentinel errors carry stable machine-readable codes
// (CodeUnsafeArrival, CodeTooManyQueries, ...) that internal/api's
// error taxonomy maps them to on the wire, and Result, DeltaStats and
// Trace have canonical JSON encodings, so coordination outcomes —
// including the exact DBQueries cost — cross a network boundary
// unchanged (internal/api, internal/server, internal/client).
package coord
