// Package admission is the tenant-aware admission layer between the
// transports and the engine: who may spend the server's database
// queries, and at what rate.
//
// A Tenant identity rides each request (HTTP X-Tenant header, binary
// KindTenant envelope; absent means the Default tenant) and is carried
// on the request context by WithTenant/FromContext. A per-tenant
// Policy combines three independent budgets — a token-bucket request
// rate, a concurrent-in-flight cap, and a rolling DBQueries budget
// drained post-paid by the exact Result.DBQueries metering — each of
// which is unlimited when zero. The Controller makes the decisions:
// Decide admits or rejects one unit of work (rejections are typed
// *ThrottleError wrapping ErrThrottled, mapping to wire code
// "throttled"/HTTP 429 with a retry-after hint), Done releases the
// in-flight slot and charges exact spend, and ChargeDB meters ungated
// work such as session leaves. Names are client-chosen, so the state
// they create is bounded: Resolve keeps accounting of their own for
// configured tenants and the first MaxUnconfigured others, and accounts
// any later name as Default.
//
// The subsystem is opt-in and transparent when off: a nil *Controller
// disables every gate, the server's batcher collapses to the single
// FIFO it had before admission existed, and no header or envelope is
// required from clients.
package admission
