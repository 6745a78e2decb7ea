// Package api defines the HTTP/JSON wire format of the coordination
// service: request and response shapes for the batch endpoint
// (POST /v1/coordinate), the streaming-session resource
// (/v1/sessions/...), and the operational surface (/healthz, /metrics).
//
// The package is deliberately dependency-light — DTOs and conversions
// only — so internal/server and internal/client both build on one
// schema and cannot drift apart. Domain types that already have
// canonical JSON encodings (eq.Query, coord.Result, coord.DeltaStats,
// coord.Trace, stream.Totals, persist.Metrics) are embedded or aliased
// directly; golden tests pin the payload bytes.
//
// The error contract lives here too (DESIGN.md, "Error contract").
// Error is the one error that crosses a process boundary, on either
// protocol and across the cluster's forward hop; From is the one
// conversion from whatever a layer returned to it; and the taxonomy is
// the one table that says, per stable code, which sentinel causes it
// and it decodes back to (so client-side errors.Is checks behave exactly
// like in-process ones), its HTTP status, whether it is retryable and
// whether the request's fate is known. Codes extend coord's
// (coord.Code*) with the stream, persist, admission, cluster and
// transport conditions the service adds.
package api
