// Package server is the coordination service: it exposes an
// engine.Engine over HTTP/JSON and the binary wire protocol so
// coordination requests cross a real process boundary, the regime the
// paper's MySQL-backed prototype serves and the one where coordination
// cost is measurable as communication.
//
// Every client-facing operation is a row of internal/wire's operation
// table — name, binary kind, HTTP verb and path, routing key, request
// and reply codecs — and the serving table in ops.go holds one entry
// per row with only what serving takes: its admission class, whether
// only the owner may serve it, the method that serves it and the cost a
// reply settles. The HTTP handler (Server.ServeHTTP) and the binary
// dispatcher (Server.ServeWire) are thin adapters over that table; the
// policy they share — admission at the edge, owner lookup, the
// terminal-forward rule, serve, settle — is the table's one run step,
// the only door a request comes in by, so the two protocols cannot
// diverge in results, errors, DBQueries or cross-node messages.
//
// Behind the table sit three pieces:
//
//   - the batch path: coordinate admits each request into its
//     tenant's bounded queue, and Engine.Workers() long-lived workers
//     each take the next request by deficit round-robin and run it
//     through engine.Coordinate (see batcher.go). A full queue rejects
//     requests with the typed code "overloaded" (inline in the batch
//     response) instead of building backlog. The bounds — maxBatch,
//     queueDepth, mailboxSize, idleTimeout, dispatchTimeout — are
//     constants (server.go). A decoded batch, from either protocol,
//     goes back to wire's pool once answered, unless its caller left
//     first, and every result of a batch reply hands its value maps
//     back to coord's pool (coord.Result.Release) once the reply is
//     rendered, on either protocol, and never before.
//   - the session registry: named stream.Sessions over the shared
//     store, each serving its events one at a time in a turn the
//     posting goroutine takes (at most mailboxSize wait for it),
//     evicted after idleTimeout, drained (not dropped) on shutdown
//     (see registry.go). Park/retry admission outcomes surface as
//     typed wire errors.
//   - the operational surface: /healthz, and /metrics with request
//     throughput, latency histograms, plan-cache hit rate and exact
//     per-session DBQueries.
//
// Wire shapes and the error taxonomy live in internal/api; the typed
// Go client in internal/client. Result.DBQueries crosses the wire
// unchanged, so the paper's cost metric is end-to-end exact (the
// loopback integration tests pin this).
package server
