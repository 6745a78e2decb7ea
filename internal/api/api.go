package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"entangled/internal/admission"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/persist"
	"entangled/internal/stream"
)

// TenantHeader is the HTTP request header carrying the tenant identity
// (the binary protocol carries it in a wire.KindTenant envelope).
// Absent or empty means the default tenant.
const TenantHeader = "X-Tenant"

// Codes the service layer adds on top of the coord taxonomy
// (coord.Code*). Like those, they are part of the public wire contract.
const (
	// CodeDuplicateID names stream.ErrDuplicateID: a join reused a live
	// or parked query ID.
	CodeDuplicateID = "duplicate_id"
	// CodeUnknownID names stream.ErrUnknownID: a leave targeted an ID
	// with no live query.
	CodeUnknownID = "unknown_id"
	// CodeSessionExists rejects creating a session under a taken name.
	CodeSessionExists = "session_exists"
	// CodeSessionNotFound rejects operations on an unknown (or evicted)
	// session.
	CodeSessionNotFound = "session_not_found"
	// CodeSessionClosed reports a session torn down (deleted, evicted,
	// or server drain) while the operation was in flight.
	CodeSessionClosed = "session_closed"
	// CodeMailboxFull applies backpressure: the session's bounded
	// mailbox had no room for the operation.
	CodeMailboxFull = "mailbox_full"
	// CodeOverloaded applies backpressure on the batch path: the
	// admission queue was full.
	CodeOverloaded = "overloaded"
	// CodeDraining rejects new work while the server shuts down.
	CodeDraining = "draining"
	// CodeBadRequest reports a malformed payload.
	CodeBadRequest = "bad_request"
	// CodeSchemaMismatch names db.ErrSchema: a body atom fits no relation.
	CodeSchemaMismatch = "schema_mismatch"
	// CodeDegraded rejects a write while the server's durable backend is
	// read-only after a disk fault. The write was NOT applied — its fate
	// is known — so retrying once the server recovers is always safe.
	CodeDegraded = "degraded"
	// CodeAckIndeterminate fails the ack of a write that was applied in
	// memory but could not be made durable (the append or fsync that
	// would have acked it failed). The write's fate is indeterminate: it
	// becomes durable if the server recovers before crashing, and is
	// lost otherwise. Blind retries of non-idempotent writes may
	// double-apply; clients should re-derive the outcome first.
	CodeAckIndeterminate = "ack_indeterminate"
	// CodeTimeout reports a server-side deadline cut the request short
	// (a stalled store or disk). Coordination reads retry safely.
	CodeTimeout = "timeout"
	// CodeRouteMoved reports a cluster request that reached a node which
	// does not own its target (the sender's ring was stale). Nothing was
	// applied — the fate is known — and Error.Owner names the node that
	// owns the target now; retry against it after refreshing the ring.
	CodeRouteMoved = "route_moved"
	// CodePeerUnavailable reports a forward that could not be sent
	// because the owning peer had no live connection. Nothing was
	// transmitted — the fate is known, exactly like CodeDegraded — so
	// retrying once the peer returns is always safe.
	CodePeerUnavailable = "peer_unavailable"
	// CodeThrottled rejects a request whose tenant is over an admission
	// budget (rate, in-flight, or rolling DBQueries). Nothing was
	// applied — the fate is known — and Error.RetryAfterMS hints when
	// capacity returns, so retrying after the hint is always safe.
	CodeThrottled = "throttled"
	// CodeInternal reports an unclassified server-side failure.
	CodeInternal = "internal"
)

// Sentinels of the conditions the serving layers raise themselves. They
// live here rather than beside the code that raises them
// (internal/server, internal/cluster) because the taxonomy below must
// see them and both packages already import api.
var (
	// ErrDraining is the sentinel under CodeDraining errors.
	ErrDraining = errors.New("server: draining")
	// ErrOverloaded is the sentinel under CodeOverloaded errors.
	ErrOverloaded = errors.New("server: coordinate queue full")
	// ErrMailboxFull is the sentinel under CodeMailboxFull errors.
	ErrMailboxFull = errors.New("server: session mailbox full")
	// ErrSessionExists is the sentinel under CodeSessionExists errors.
	ErrSessionExists = errors.New("server: session name taken")
	// ErrSessionNotFound is the sentinel under CodeSessionNotFound
	// errors.
	ErrSessionNotFound = errors.New("server: no such session")
	// ErrSessionClosed is the sentinel under CodeSessionClosed errors.
	ErrSessionClosed = errors.New("server: session closed")
	// ErrRouteMoved is the sentinel under CodeRouteMoved errors.
	ErrRouteMoved = errors.New("cluster: route moved")
	// ErrPeerUnavailable is the sentinel under CodePeerUnavailable
	// errors.
	ErrPeerUnavailable = errors.New("cluster: peer unavailable")
)

// class is one row of the error contract.
type class struct {
	code string
	// sentinel is the cause From recognises the code by and the error a
	// decoded Error unwraps to; nil for the two codes no sentinel causes.
	sentinel error
	// status is the HTTP status, and the binary reply frame's equivalent.
	status int
	// retryable: the same call may succeed later (client.IsRetryable).
	retryable bool
	// fateKnown: the server refused before any state changed, so even a
	// non-idempotent call can be retried blindly (client.FateKnown).
	fateKnown bool
}

// taxonomy is the error contract, written once: one row per code, in
// classification order. From gives an error the first row whose
// sentinel it wraps, so the arrival rejection precedes the unsafe set
// it specialises, and indeterminate precedes degraded — a failed
// journal append wraps ErrIndeterminate beside its cause, and the
// distinction is what tells a client whether a blind retry is safe.
// The last row is what an error wrapping none of the sentinels renders
// as. DESIGN.md ("Error contract") says who raises each row; the
// package's tests hold the two tables together.
var taxonomy = []class{
	{CodeDraining, ErrDraining, http.StatusServiceUnavailable, false, true},
	{CodeOverloaded, ErrOverloaded, http.StatusTooManyRequests, true, true},
	{CodeThrottled, admission.ErrThrottled, http.StatusTooManyRequests, true, true},
	{CodeMailboxFull, ErrMailboxFull, http.StatusTooManyRequests, true, true},
	{CodeSessionExists, ErrSessionExists, http.StatusConflict, false, false},
	{CodeSessionNotFound, ErrSessionNotFound, http.StatusNotFound, false, false},
	{CodeSessionClosed, ErrSessionClosed, http.StatusGone, false, false},
	{CodeDuplicateID, stream.ErrDuplicateID, http.StatusConflict, false, false},
	{CodeUnknownID, stream.ErrUnknownID, http.StatusNotFound, false, false},
	{coord.CodeUnsafeArrival, coord.ErrUnsafeArrival, http.StatusConflict, false, false},
	{coord.CodeTooManyQueries, coord.ErrTooManyQueries, http.StatusUnprocessableEntity, false, false},
	{coord.CodeNoQuery, coord.ErrNoQuery, http.StatusNotFound, false, false},
	{coord.CodeNotUnique, coord.ErrNotUnique, http.StatusUnprocessableEntity, false, false},
	{coord.CodeUnsafe, coord.ErrUnsafe, http.StatusUnprocessableEntity, false, false},
	{CodeRouteMoved, ErrRouteMoved, http.StatusMisdirectedRequest, true, true},
	{CodePeerUnavailable, ErrPeerUnavailable, http.StatusBadGateway, true, true},
	{CodeAckIndeterminate, persist.ErrIndeterminate, http.StatusServiceUnavailable, true, false},
	{CodeDegraded, persist.ErrDegraded, http.StatusServiceUnavailable, true, true},
	{CodeTimeout, context.DeadlineExceeded, http.StatusGatewayTimeout, true, false},
	{CodeSchemaMismatch, db.ErrSchema, http.StatusUnprocessableEntity, false, false},
	{CodeBadRequest, nil, http.StatusBadRequest, false, false},
	{CodeInternal, nil, http.StatusInternalServerError, false, false},
}

// classOf returns the row a code names; an unknown code reads as the
// last row, which claims nothing.
func classOf(code string) *class {
	for i := range taxonomy {
		if taxonomy[i].code == code {
			return &taxonomy[i]
		}
	}
	return &taxonomy[len(taxonomy)-1]
}

// Sentinel returns the sentinel error a code names, or nil for the
// codes no sentinel causes (bad_request, internal) and unknown codes.
func Sentinel(code string) error { return classOf(code).sentinel }

// Error is the one error that crosses a process boundary: nested under
// "error" in HTTP error bodies, the body of a failed binary reply, the
// inline failure of one request of a batch, and the value both client
// transports return — the same struct at every hop, relayed verbatim.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Owner names the node that owns the request's target, set only on
	// CodeRouteMoved errors so a stale client can re-route without
	// re-fetching the whole ring.
	Owner string `json:"owner,omitempty"`
	// RetryAfterMS is the server's hint, in milliseconds, of when
	// capacity returns; set only on CodeThrottled errors whose budget
	// refills on a clock. HTTP responses mirror it (coarsened to
	// seconds) in the standard Retry-After header.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Status is the HTTP status of the reply that failed, or the binary
	// reply frame's equivalent. It travels in the status line or frame,
	// not in the error's own encoding, so the inline error of one
	// request inside a successful batch reply decodes with 0.
	Status int `json:"-"`
}

func (e *Error) Error() string { return e.Code + ": " + e.Message }

// Unwrap attaches the sentinel the code names, so errors.Is holds
// across the network exactly as it does in-process.
func (e *Error) Unwrap() error { return Sentinel(e.Code) }

// OwnerNode implements Owned.
func (e *Error) OwnerNode() string { return e.Owner }

// RetryAfterHint implements RetryHinter; zero means no hint.
func (e *Error) RetryAfterHint() time.Duration {
	return time.Duration(e.RetryAfterMS) * time.Millisecond
}

// Retryable reports whether the same call may succeed later.
func (e *Error) Retryable() bool { return classOf(e.Code).retryable }

// FateKnown reports whether the server refused the call before any
// state changed.
func (e *Error) FateKnown() bool { return classOf(e.Code).fateKnown }

// Owned is implemented by errors that name the node owning the
// request's target (route_moved); From copies it into Error.Owner.
type Owned interface{ OwnerNode() string }

// RetryHinter is implemented by errors that know when capacity returns
// (admission throttles); From copies the hint into Error.RetryAfterMS.
type RetryHinter interface{ RetryAfterHint() time.Duration }

// From renders a failure as the Error that reports it — the one
// conversion, at whichever edge first needs wire form. An error that
// already is one (a request the server refused as malformed, the reply
// a forward's owner sent) passes through untouched; anything else is
// classified by the taxonomy, with the owner and retry hint its chain
// carries. Nil maps to nil.
func From(err error) *Error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	c := &taxonomy[len(taxonomy)-1]
	for i := range taxonomy {
		if s := taxonomy[i].sentinel; s != nil && errors.Is(err, s) {
			c = &taxonomy[i]
			break
		}
	}
	e = &Error{Code: c.code, Message: err.Error(), Status: c.status}
	if c.sentinel == nil && errors.Is(err, context.Canceled) {
		e.Status = 499 // the client is gone and never sees it
	}
	var o Owned
	if errors.As(err, &o) {
		e.Owner = o.OwnerNode()
	}
	var h RetryHinter
	if errors.As(err, &h) && h.RetryAfterHint() > 0 {
		// Whole milliseconds, rounded up: a positive hint never
		// truncates to "no hint".
		e.RetryAfterMS = int64((h.RetryAfterHint() + time.Millisecond - 1) / time.Millisecond)
	}
	return e
}

// Request is one coordination request inside a batch call.
type Request struct {
	// ID is an opaque caller tag echoed in the response.
	ID string `json:"id,omitempty"`
	// Queries is the entangled query set to coordinate.
	Queries []eq.Query `json:"queries"`
}

// CoordinateRequest is the body of POST /v1/coordinate.
type CoordinateRequest struct {
	Requests []Request `json:"requests"`
}

// Response is one request's outcome. Result is null when no
// coordinating set exists or the request failed; Error carries the
// failure. Result.DBQueries is the exact per-request cost, identical
// to what an in-process run reports.
type Response struct {
	ID     string        `json:"id,omitempty"`
	Result *coord.Result `json:"result"`
	Error  *Error        `json:"error,omitempty"`
}

// CoordinateResponse is the body of a successful POST /v1/coordinate.
type CoordinateResponse struct {
	Responses []Response `json:"responses"`
}

// AppendJSON appends the reply's JSON encoding to b and returns it: the
// bytes encoding/json writes for it, each result rendered by
// coord.Result.AppendJSON and an inline error (the rare path) by
// json.Marshal. The server renders every batch reply through it.
func (c CoordinateResponse) AppendJSON(b []byte) []byte {
	if c.Responses == nil {
		return append(b, `{"responses":null}`...)
	}
	b = append(b, `{"responses":[`...)
	for i, r := range c.Responses {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if r.ID != "" {
			b = append(b, `"id":`...)
			b = eq.AppendJSONString(b, r.ID)
			b = append(b, ',')
		}
		b = append(b, `"result":`...)
		if r.Result == nil {
			b = append(b, "null"...)
		} else {
			b = r.Result.AppendJSON(b)
		}
		if r.Error != nil {
			e, _ := json.Marshal(r.Error) // strings and ints always encode
			b = append(append(b, `,"error":`...), e...)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// CreateSessionRequest is the body of POST /v1/sessions.
type CreateSessionRequest struct {
	// ID names the session; empty asks the server to generate one.
	ID string `json:"id,omitempty"`
	// ParkUnsafe parks unsafe arrivals for retry instead of rejecting
	// them (stream.Options.ParkUnsafe).
	ParkUnsafe bool `json:"park_unsafe,omitempty"`
}

// CreateSessionResponse is the body of a successful session creation.
type CreateSessionResponse struct {
	ID string `json:"id"`
}

// JoinRequest is the body of POST /v1/sessions/{id}/join.
type JoinRequest struct {
	Query eq.Query `json:"query"`
}

// LeaveRequest is the body of POST /v1/sessions/{id}/leave.
type LeaveRequest struct {
	// ID is the departing query's ID (eq.Query.ID, not the session
	// name).
	ID string `json:"id"`
}

// Update is the wire shape of one processed session event
// (stream.Update).
type Update struct {
	Seq       int              `json:"seq"`
	Admitted  bool             `json:"admitted"`
	Parked    bool             `json:"parked,omitempty"`
	TeamSize  int              `json:"team_size"`
	Stats     coord.DeltaStats `json:"stats"`
	ElapsedNS int64            `json:"elapsed_ns"`
	Error     *Error           `json:"error,omitempty"`
}

// UpdateFrom converts a session update for transport.
func UpdateFrom(u stream.Update) Update {
	return Update{
		Seq:       u.Seq,
		Admitted:  u.Admitted,
		Parked:    u.Parked,
		TeamSize:  u.TeamSize,
		Stats:     u.Stats,
		ElapsedNS: u.Elapsed.Nanoseconds(),
		Error:     From(u.Err),
	}
}

// Totals is stream.Totals: the session-lifetime statistics travel as
// the session keeps them.
type Totals = stream.Totals

// SessionStatus is the body of GET /v1/sessions/{id}. Result is the
// currently selected coordinating set over Queries (indices are
// positions in Queries, exactly like a batch run over that slice);
// Trace is included only when the request asks for it (?trace=1).
type SessionStatus struct {
	ID       string        `json:"id"`
	Live     int           `json:"live"`
	Parked   int           `json:"parked"`
	Queries  []eq.Query    `json:"queries"`
	Result   *coord.Result `json:"result"`
	Totals   Totals        `json:"totals"`
	Trace    *coord.Trace  `json:"trace,omitempty"`
	TeamSize int           `json:"team_size"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status   string  `json:"status"` // "ok", "degraded", or "draining"
	Sessions int     `json:"sessions"`
	UptimeS  float64 `json:"uptime_s"`
	// Degraded is true while the durable backend rejects writes after a
	// disk fault; DegradedCause is the error that tripped it. Reads and
	// batch coordination keep working.
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedCause string `json:"degraded_cause,omitempty"`
	// Cluster summarises this node's view of the cluster; nil when the
	// server runs standalone.
	Cluster *ClusterHealth `json:"cluster,omitempty"`
}

// ClusterHealth is the cluster slice of /healthz: enough to see at a
// glance whether this node can reach its peers.
type ClusterHealth struct {
	Self  string `json:"self"`
	Nodes int    `json:"nodes"`
	// PeersDown names peers with no live forwarding connection right
	// now; empty means every peer is reachable.
	PeersDown []string `json:"peers_down,omitempty"`
}

// Histogram is a fixed-bucket latency histogram: Counts[i] holds
// observations <= BucketsNS[i]; the final bucket is unbounded.
type Histogram struct {
	BucketsNS []int64 `json:"buckets_ns"`
	Counts    []int64 `json:"counts"`
	Count     int64   `json:"count"`
	SumNS     int64   `json:"sum_ns"`
}

// CoordinateMetrics meters the batch endpoint.
type CoordinateMetrics struct {
	// Requests counts individual coordination requests admitted.
	Requests int64 `json:"requests"`
	// Batches counts requests handed to a worker; the name is kept from
	// when one dispatch coalesced several.
	Batches int64 `json:"batches"`
	// Errors counts requests whose outcome was an error.
	Errors int64 `json:"errors"`
	// Rejected counts requests refused at admission (queue full or
	// draining).
	Rejected int64 `json:"rejected"`
	// DBQueries totals the exact per-request costs served.
	DBQueries int64 `json:"db_queries"`
	// Latency is the submit-to-response distribution, queue wait
	// included.
	Latency Histogram `json:"latency"`
}

// SessionCounters is one live session's slice of /metrics — notably its
// exact lifetime DBQueries.
type SessionCounters struct {
	ID        string `json:"id"`
	Live      int    `json:"live"`
	Parked    int    `json:"parked"`
	Events    int    `json:"events"`
	DBQueries int64  `json:"db_queries"`
}

// SessionMetrics meters the session resource.
type SessionMetrics struct {
	Open       int               `json:"open"`
	Created    int64             `json:"created"`
	Evicted    int64             `json:"evicted"`
	Events     int64             `json:"events"`
	DBQueries  int64             `json:"db_queries"`
	Latency    Histogram         `json:"latency"`
	PerSession []SessionCounters `json:"per_session,omitempty"`
}

// PlanCacheMetrics surfaces the store's compiled-plan cache counters.
type PlanCacheMetrics struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	Entries int64   `json:"entries"`
	HitRate float64 `json:"hit_rate"`
}

// PersistMetrics is persist.Metrics: the durable backend's WAL counters
// travel as the backend snapshots them.
type PersistMetrics = persist.Metrics

// Metrics is the body of GET /metrics.
type Metrics struct {
	UptimeS    float64           `json:"uptime_s"`
	Coordinate CoordinateMetrics `json:"coordinate"`
	Sessions   SessionMetrics    `json:"sessions"`
	PlanCache  *PlanCacheMetrics `json:"plan_cache,omitempty"`
	Persist    *PersistMetrics   `json:"persist,omitempty"`
	Cluster    *ClusterMetrics   `json:"cluster,omitempty"`
	Admission  *AdmissionMetrics `json:"admission,omitempty"`
}

// TenantCounters is one tenant's admission and scheduling counters
// inside /metrics.
type TenantCounters struct {
	Tenant   string `json:"tenant"`
	Admitted int64  `json:"admitted"`
	// Throttled is total rejections; the Throttled* fields break it
	// down by budget dimension.
	Throttled         int64 `json:"throttled"`
	ThrottledRate     int64 `json:"throttled_rate,omitempty"`
	ThrottledInFlight int64 `json:"throttled_in_flight,omitempty"`
	ThrottledBudget   int64 `json:"throttled_budget,omitempty"`
	InFlight          int   `json:"in_flight"`
	// QueueDepth is the tenant's current backlog in the fair queue.
	QueueDepth int `json:"queue_depth"`
	// DBQueriesSpent is the tenant's lifetime exact database-query
	// spend (Result.DBQueries metering).
	DBQueriesSpent int64 `json:"db_queries_spent"`
	// Dispatched counts this tenant's requests handed to a worker by
	// the fair (deficit round-robin) schedule; beside QueueDepth it
	// shows each tenant's share of the service.
	Dispatched int64 `json:"dispatched,omitempty"`
}

// AdmissionMetrics is the per-tenant admission block of /metrics,
// present only when the server runs with an admission policy.
type AdmissionMetrics struct {
	Admitted  int64            `json:"admitted"`
	Throttled int64            `json:"throttled"`
	Tenants   []TenantCounters `json:"tenants,omitempty"`
}

// TenantStatus is one tenant's entry in GET /v1/tenants: its effective
// policy plus live accounting.
type TenantStatus struct {
	Tenant string           `json:"tenant"`
	Policy admission.Policy `json:"policy"`
	// InFlight is currently admitted, not yet finished work;
	// QueueDepth is the tenant's backlog in the fair queue.
	InFlight   int   `json:"in_flight"`
	QueueDepth int   `json:"queue_depth"`
	Admitted   int64 `json:"admitted"`
	Throttled  int64 `json:"throttled"`
	// DBQueriesSpent is lifetime exact spend; DBBalance is the rolling
	// budget balance as of the last accounting touch (negative while a
	// post-paid overdraft refills).
	DBQueriesSpent int64   `json:"db_queries_spent"`
	DBBalance      float64 `json:"db_balance,omitempty"`
}

// TenantsStatus is the body of GET /v1/tenants. Enabled is false (and
// Tenants empty) when the server runs without an admission policy.
type TenantsStatus struct {
	Enabled bool           `json:"enabled"`
	Tenants []TenantStatus `json:"tenants,omitempty"`
}

// ClusterNode is one ring member as /v1/cluster reports it.
type ClusterNode struct {
	Name string `json:"name"`
	// Addr is the node's binary wire address — the address peers forward
	// over and clients dial.
	Addr string `json:"addr"`
	// Self marks the node serving this response.
	Self bool `json:"self,omitempty"`
	// Connected reports whether this node currently holds a live
	// forwarding connection to the peer (always false for Self).
	Connected bool `json:"connected,omitempty"`
}

// RelationPlacement names the column whose value places a relation's
// rows — and the requests that pin it — on the ring, mirroring
// db.ShardedInstance's per-relation hash column.
type RelationPlacement struct {
	Relation string `json:"relation"`
	Column   int    `json:"column"`
}

// ClusterStatus is the body of GET /v1/cluster: everything an operator
// needs to rebuild this node's ring — membership, virtual-node count
// and relation placements are deterministic, so two nodes reporting
// the same Version hold byte-identical rings.
type ClusterStatus struct {
	Enabled bool   `json:"enabled"`
	Self    string `json:"self,omitempty"`
	// VirtualNodes is the per-node virtual point count the ring was
	// built with.
	VirtualNodes int `json:"virtual_nodes,omitempty"`
	// Version fingerprints membership + virtual-node count; it changes
	// iff the ring changes.
	Version   string              `json:"version,omitempty"`
	Nodes     []ClusterNode       `json:"nodes,omitempty"`
	Relations []RelationPlacement `json:"relations,omitempty"`
}

// PeerMetrics is one peer's slice of ClusterMetrics.
type PeerMetrics struct {
	Name      string `json:"name"`
	Connected bool   `json:"connected"`
	// Forwards counts requests this node forwarded to the peer;
	// Failures counts forwards that failed before a reply arrived.
	Forwards int64 `json:"forwards"`
	Failures int64 `json:"failures,omitempty"`
}

// ClusterMetrics is the cluster slice of /metrics.
type ClusterMetrics struct {
	Self  string `json:"self"`
	Nodes int    `json:"nodes"`
	// ForwardsSent/ForwardsReceived count session ops and batch slices
	// crossing node boundaries in each direction; RouteMoved counts
	// forwarded requests this node refused because it does not own the
	// target.
	ForwardsSent     int64 `json:"forwards_sent"`
	ForwardsReceived int64 `json:"forwards_received"`
	ForwardFailures  int64 `json:"forward_failures,omitempty"`
	RouteMoved       int64 `json:"route_moved,omitempty"`
	// ScatterBatches counts CoordinateMany calls that touched more than
	// one node; FanoutCounts[i] counts batches that touched i+1 nodes
	// (the last bucket absorbs larger fan-outs).
	ScatterBatches int64         `json:"scatter_batches"`
	FanoutCounts   []int64       `json:"fanout_counts,omitempty"`
	Peers          []PeerMetrics `json:"peers,omitempty"`
}

// RecoveryStatus is the body of GET /v1/recovery: what this server
// process replayed from its durable backend at startup. Enabled is
// false (and everything else zero) when the server runs in-memory.
type RecoveryStatus struct {
	Enabled bool   `json:"enabled"`
	DataDir string `json:"data_dir,omitempty"`
	// RecoveryStats is what the backend replayed: the snapshot the store
	// was restored from, the mutation log on top of it, and the session
	// journals; RecoveredSessions names those.
	persist.RecoveryStats
	RecoveredSessions []string `json:"recovered_sessions,omitempty"`
	// Degraded/DegradedCause mirror the live degraded-mode state at the
	// time of the request (not a startup property; surfaced here so the
	// recovery endpoint tells the whole durability story).
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedCause string `json:"degraded_cause,omitempty"`
}

// ErrorEnvelope is the body of every non-2xx response.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// Errf builds a wire error with an explicit code.
func Errf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}
