// Package stream serves coordination traffic that arrives as a stream
// rather than a finished batch: users join an evolving scenario one
// entangled query at a time, and occasionally leave it. A Session
// accepts Join and Leave events (or an Apply of either) over any
// db.Store and maintains the coordination state
// incrementally through coord.Incremental: an arrival extends the
// extended coordination graph with only its own incident edges, pruning
// is replayed from cached body-satisfiability probes, and only the
// condensation components whose reachable set changed are re-unified
// and re-grounded; everything else splices the previous pass's cached
// witness. Each event's exact database-query cost is metered
// separately (coord.DeltaStats), so the paper's central cost metric
// survives streaming: the per-event cost is proportional to the dirty
// region, not the session size.
//
// Admission is part of the contract: an arrival that would make the
// session's set unsafe (Definition 2 — some postcondition would unify
// with more than one head) is rejected with coord.ErrUnsafeArrival, or
// parked when Options.ParkUnsafe is set. Parked queries are retried
// automatically after each departure, since a departure is the only
// event that can clear a fanout conflict.
//
// A quiesced session is observationally equivalent to a batch run: its
// Status — result and trace — matches coord.SCCCoordinate over the live
// queries in arrival order (see the equivalence property test), and
// asking for it issues no database queries. A session takes no
// coordination options: it prunes as a batch run does and reports the
// largest coordinating set.
//
// Long-lived sessions stay O(live queries): departed queries leave
// tombstoned slots behind, and once DefaultCompactAfter of them
// accumulate the session compacts — live queries are renumbered into
// dense slots, in place and without a database query, since cached
// outcomes name queries by admission serial and not by slot. No update, status or total shows
// whether or when it happened (TestCompactionIsInvisible; the
// compaction property test churns aggressively and checks batch
// equivalence after every event).
package stream
