package client

import (
	"context"
	"net/http"
	"net/url"

	"entangled/internal/api"
	"entangled/internal/wire"
)

// wireReq is a request as the binary protocol carries it; the wire.*Req
// structs are the request types of every transport.
type wireReq interface{ Encode(*wire.Enc) }

// none is the request of operations that take no input and the reply
// of operations that answer with a bare status.
type none struct{}

func (none) Encode(*wire.Enc) {}

// op describes one operation of the service once, mirroring the
// server's operation table: the transports serve every operation
// generically from this description.
type op[Q wireReq, R any] struct {
	name string
	// kind is the binary request kind; zero marks an HTTP-only
	// operation.
	kind wire.Kind
	// method and path are the HTTP verb and URL path; an empty method
	// marks a binary-only operation.
	method string
	path   func(Q) string
	// body is the JSON request body; nil sends none.
	body func(Q) any
	// key names the session the cluster transport routes by; nil (or an
	// empty key) means any node can serve the call.
	key func(Q) string
	// dec reads the binary reply body; nil when R is none.
	dec func(*wire.Dec) R
}

// request is one call as the transports see it: an op bound to its
// input, with the slot its reply decodes into.
type request interface {
	name() string
	kind() wire.Kind
	key() string
	// http renders the call for the HTTP transport: verb, path, JSON
	// request body and the pointer a 2xx body decodes into (either may
	// be nil).
	http() (method, path string, in, out any)
	encode(*wire.Enc)
	decode(*wire.Dec)
}

type bound[Q wireReq, R any] struct {
	op *op[Q, R]
	q  Q
	r  R
}

func (b *bound[Q, R]) name() string       { return b.op.name }
func (b *bound[Q, R]) kind() wire.Kind    { return b.op.kind }
func (b *bound[Q, R]) encode(e *wire.Enc) { b.q.Encode(e) }

func (b *bound[Q, R]) key() string {
	if b.op.key == nil {
		return ""
	}
	return b.op.key(b.q)
}

func (b *bound[Q, R]) http() (method, path string, in, out any) {
	if b.op.method == "" {
		return "", "", nil, nil
	}
	if b.op.body != nil {
		in = b.op.body(b.q)
	}
	if _, bare := any(&b.r).(*none); !bare {
		out = &b.r
	}
	return b.op.method, b.op.path(b.q), in, out
}

func (b *bound[Q, R]) decode(d *wire.Dec) {
	if b.op.dec != nil {
		b.r = b.op.dec(d)
	}
}

// invoke runs one operation over whichever transport the client holds.
func invoke[Q wireReq, R any](ctx context.Context, t transport, o *op[Q, R], q Q) (R, error) {
	b := &bound[Q, R]{op: o, q: q}
	err := t.call(ctx, b)
	return b.r, err
}

// read is invoke for the operations whose public form returns a
// pointer (nil on error).
func read[Q wireReq, R any](ctx context.Context, t transport, o *op[Q, R], q Q) (*R, error) {
	rep, err := invoke(ctx, t, o, q)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

func fixed[Q any](path string) func(Q) string { return func(Q) string { return path } }

func sessionPath(session, suffix string) string {
	return "/v1/sessions/" + url.PathEscape(session) + suffix
}

var (
	coordinateOp = &op[wire.CoordinateReq, api.CoordinateResponse]{
		name: "coordinate", kind: wire.KindCoordinate,
		method: http.MethodPost, path: fixed[wire.CoordinateReq]("/v1/coordinate"),
		body: func(q wire.CoordinateReq) any { return api.CoordinateRequest{Requests: q.Requests} },
		dec: func(d *wire.Dec) api.CoordinateResponse {
			return api.CoordinateResponse{Responses: wire.GetResponses(d)}
		},
	}
	createOp = &op[wire.CreateSessionReq, api.CreateSessionResponse]{
		name: "create", kind: wire.KindCreateSession,
		method: http.MethodPost, path: fixed[wire.CreateSessionReq]("/v1/sessions"),
		body: func(q wire.CreateSessionReq) any {
			return api.CreateSessionRequest{ID: q.ID, ParkUnsafe: q.ParkUnsafe}
		},
		key: func(q wire.CreateSessionReq) string { return q.ID },
		dec: func(d *wire.Dec) api.CreateSessionResponse { return api.CreateSessionResponse{ID: d.String()} },
	}
	joinOp = &op[wire.JoinReq, api.Update]{
		name: "join", kind: wire.KindJoin,
		method: http.MethodPost, path: func(q wire.JoinReq) string { return sessionPath(q.Session, "/join") },
		body: func(q wire.JoinReq) any { return api.JoinRequest{Query: q.Query} },
		key:  func(q wire.JoinReq) string { return q.Session },
		dec:  wire.GetUpdate,
	}
	leaveOp = &op[wire.LeaveReq, api.Update]{
		name: "leave", kind: wire.KindLeave,
		method: http.MethodPost, path: func(q wire.LeaveReq) string { return sessionPath(q.Session, "/leave") },
		body: func(q wire.LeaveReq) any { return api.LeaveRequest{ID: q.QueryID} },
		key:  func(q wire.LeaveReq) string { return q.Session },
		dec:  wire.GetUpdate,
	}
	statusOp = &op[wire.StatusReq, api.SessionStatus]{
		name: "status", kind: wire.KindStatus,
		method: http.MethodGet, path: func(q wire.StatusReq) string {
			if q.Trace {
				return sessionPath(q.Session, "?trace=1")
			}
			return sessionPath(q.Session, "")
		},
		key: func(q wire.StatusReq) string { return q.Session },
		dec: wire.GetSessionStatus,
	}
	deleteOp = &op[wire.SessionReq, none]{
		name: "delete", kind: wire.KindDeleteSession,
		method: http.MethodDelete, path: func(q wire.SessionReq) string { return sessionPath(q.Session, "") },
		key: func(q wire.SessionReq) string { return q.Session },
	}
	// subscribeOp has no HTTP form: push needs a persistent connection.
	subscribeOp = &op[wire.SessionReq, none]{
		name: "subscribe", kind: wire.KindSubscribe,
		key: func(q wire.SessionReq) string { return q.Session },
	}
	healthOp = &op[none, api.Health]{
		name: "health", kind: wire.KindHealth,
		method: http.MethodGet, path: fixed[none]("/healthz"), dec: wire.GetHealth,
	}
	clusterOp = &op[none, api.ClusterStatus]{
		name: "cluster", kind: wire.KindCluster,
		method: http.MethodGet, path: fixed[none]("/v1/cluster"), dec: wire.GetClusterStatus,
	}
	// The operator surfaces are HTTP only: their DTOs have no binary
	// encoding.
	recoveryOp = &op[none, api.RecoveryStatus]{name: "recovery", method: http.MethodGet, path: fixed[none]("/v1/recovery")}
	metricsOp  = &op[none, api.Metrics]{name: "metrics", method: http.MethodGet, path: fixed[none]("/metrics")}
	tenantsOp  = &op[none, api.TenantsStatus]{name: "tenants", method: http.MethodGet, path: fixed[none]("/v1/tenants")}
)
