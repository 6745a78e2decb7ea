package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"entangled/internal/admission"
	"entangled/internal/api"
	"entangled/internal/stream"
	"entangled/internal/wire"
)

// class is an operation's admission class: whether the tenant can be
// refused, and whether the store work lands on its budget.
type class uint8

const (
	// unmetered operations are neither refused nor charged by run:
	// reads, deletes, and coordinate — whose batch path gates and
	// settles each request of the batch on its own.
	unmetered class = iota
	// gated operations (create, join) are decided against the tenant's
	// policy before anything else happens and settle their exact
	// DBQueries when they finish.
	gated
	// metered operations (leave) are never refused — shedding load must
	// not block releasing it — but the store work they trigger still
	// lands on the tenant's budget.
	metered
)

// body is a request as the binary protocol carries it; the wire.*Req
// structs are the request types of both protocols.
type body interface{ Encode(*wire.Enc) }

// none is the request of operations that take no input and the reply
// of operations that answer with a bare status.
type none struct{}

func (none) Encode(*wire.Enc) {}

// op describes one client-facing operation once; serveHTTP and
// serveWire are the two thin adapters over it, and run is the policy
// they share.
type op[Q body, R any] struct {
	name string
	// kind is the binary request kind; zero marks an HTTP-only
	// operation.
	kind wire.Kind
	// pattern is the HTTP verb and path as http.ServeMux spells them;
	// empty marks a binary-only operation.
	pattern string
	// fromHTTP reads the request from the path, query string and JSON
	// body; fromWire reads it from a frame. Nil when Q is none.
	fromHTTP func(*http.Request) (Q, error)
	fromWire func(*wire.Dec) Q
	// key names the session the request routes by; nil (or an empty
	// key) serves wherever the request lands.
	key func(Q) string
	// local marks an operation only the owner itself can serve: a
	// misplaced request answers route_moved instead of forwarding.
	local bool
	class class
	// serve runs the operation on the node that owns it and returns the
	// reply with its HTTP(-equivalent) status.
	serve func(*Server, context.Context, Q, bool) (R, int, error)
	// putReply and getReply are the reply's binary codec (getReply reads
	// back what a forward's owner answered); nil when R is none.
	putReply func(*wire.Enc, R)
	getReply func(*wire.Dec) R
	// cost is the DBQueries a successful reply settles; nil means zero.
	cost func(R) int64
	// then runs on the binary connection after the reply was written.
	then func(*Server, *wireConn, Q)
}

// operation is the table's element type: op with its request and reply
// types erased.
type operation interface {
	route() (name string, kind wire.Kind, pattern string)
	serveHTTP(s *Server, w http.ResponseWriter, r *http.Request)
	serveWire(s *Server, ctx context.Context, wc *wireConn, id uint64, d *wire.Dec, forwarded bool)
}

func (o *op[Q, R]) route() (string, wire.Kind, string) { return o.name, o.kind, o.pattern }

// run is the policy every operation follows on both protocols:
// admission at the edge, then the owner lookup, then either the
// terminal-forward rule or one forward hop or local service, then the
// settle. forwarded marks a request unwrapped from a KindForward
// envelope: the edge node that sent it already admitted it (and settles
// it from the reply), and forwards are terminal — a forwarded request
// this node does not own answers route_moved instead of forwarding
// again.
func (o *op[Q, R]) run(s *Server, ctx context.Context, q Q, forwarded bool) (R, int, error) {
	cl := o.class
	if s.adm == nil || forwarded {
		cl = unmetered
	}
	var ten admission.Tenant
	if cl != unmetered {
		ten = s.tenantOf(ctx)
	}
	if cl == gated {
		// A throttled request never crosses the cluster, and the charge
		// lands on the node that talked to the client.
		if err := s.adm.Decide(ten); err != nil {
			var zero R
			return zero, 0, err
		}
	}
	rep, status, err := o.place(s, ctx, q, forwarded)
	// A failure settles zero — a malformed forwarded reply included: a
	// body that did not validate is not a bill.
	var dbq int64
	if err == nil && o.cost != nil {
		dbq = o.cost(rep)
	}
	switch cl {
	case gated:
		s.adm.Done(ten, dbq)
	case metered:
		s.adm.ChargeDB(ten, dbq)
	}
	return rep, status, err
}

// place serves the request where it belongs: here when this node owns
// the key (or the operation has none), one hop away otherwise.
func (o *op[Q, R]) place(s *Server, ctx context.Context, q Q, forwarded bool) (rep R, status int, err error) {
	if o.key != nil {
		if key := o.key(q); key != "" {
			if node, remote := s.remoteOwner(key); remote {
				if forwarded || o.local {
					return rep, 0, s.opts.Cluster.RouteMoved("session", key)
				}
				return o.forward(s, ctx, node, q)
			}
		}
	}
	return o.serve(s, ctx, q, forwarded)
}

// forward sends the request to its owning node and reads the owner's
// reply back into the operation's reply type, so the edge renders it
// exactly as if it had served the request itself — status included (a
// parked join stays 202 across the hop). A service-level failure comes
// back as the owner's *api.Error and relays verbatim.
func (o *op[Q, R]) forward(s *Server, ctx context.Context, node string, q Q) (rep R, status int, err error) {
	status, reply, err := s.opts.Cluster.Forward(ctx, node, o.kind, q.Encode)
	if err != nil {
		return rep, 0, err
	}
	d := wire.NewDec(reply)
	if o.getReply != nil {
		rep = o.getReply(d)
	}
	if d.Finish() != nil {
		var zero R
		return zero, 0, fmt.Errorf("cluster: %s returned a malformed %v reply", node, o.kind)
	}
	return rep, status, nil
}

// serveHTTP is the HTTP adapter: read the request, run, render the
// status with the reply DTO or the error envelope.
func (o *op[Q, R]) serveHTTP(s *Server, w http.ResponseWriter, r *http.Request) {
	var q Q
	if o.fromHTTP != nil {
		// The binary protocol refuses frames above wire.MaxFrame; HTTP
		// bodies stop at the same size.
		r.Body = http.MaxBytesReader(w, r.Body, wire.MaxFrame)
		var err error
		if q, err = o.fromHTTP(r); err != nil {
			writeError(w, err)
			return
		}
	}
	rep, status, err := o.run(s, r.Context(), q, false)
	switch {
	case err != nil:
		writeError(w, err)
	case status == http.StatusNoContent:
		w.WriteHeader(status)
	default:
		writeJSON(w, status, rep)
	}
}

// serveWire is the binary adapter. The request decodes synchronously
// (the connection's read buffer is reused by the next frame) and runs
// on its own goroutine, so pipelined requests overlap.
func (o *op[Q, R]) serveWire(s *Server, ctx context.Context, wc *wireConn, id uint64, d *wire.Dec, forwarded bool) {
	var q Q
	if o.fromWire != nil {
		q = o.fromWire(d)
	}
	if err := d.Finish(); err != nil {
		wc.badBody(id, err)
		return
	}
	wc.inflight.Add(1)
	go func() {
		defer wc.inflight.Done()
		rep, status, err := o.run(s, ctx, q, forwarded)
		if err != nil {
			wc.replyErr(id, err)
			return
		}
		wc.replyOK(id, status, func(e *wire.Enc) {
			if o.putReply != nil {
				o.putReply(e, rep)
			}
		})
		if o.then != nil {
			o.then(s, wc, q)
		}
	}()
}

// badRequest is a rejection of the request itself, carrying its own
// status (400, or 413 for a body over the cap).
func badRequest(status int, format string, args ...any) error {
	return &api.Error{Status: status, Code: api.CodeBadRequest, Message: fmt.Sprintf(format, args...)}
}

// readJSON is the one step where a client's JSON enters the server.
// The body is already capped (serveHTTP); overrunning the cap is 413,
// anything else undecodable 400, both the typed bad_request.
func readJSON(r *http.Request, v any) error {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return nil
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	return badRequest(status, "decoding body: %v", err)
}

func sessionOf(r *http.Request) string { return r.PathValue("id") }

// reading adapts a parameterless snapshot to a serve function.
func reading[R any](snapshot func(*Server) R) func(*Server, context.Context, none, bool) (R, int, error) {
	return func(s *Server, _ context.Context, _ none, _ bool) (R, int, error) {
		return snapshot(s), http.StatusOK, nil
	}
}

func updateCost(u api.Update) int64 { return u.Stats.DBQueries }

// ops is the operation table: every client-facing operation appears
// here exactly once. New registers the HTTP routes by ranging over it,
// wireOps indexes it by kind for the binary dispatcher, and the
// cross-codec tests iterate it.
var ops = []operation{
	&op[wire.CoordinateReq, api.CoordinateResponse]{
		name: "coordinate", kind: wire.KindCoordinate, pattern: "POST /v1/coordinate",
		fromHTTP: func(r *http.Request) (wire.CoordinateReq, error) {
			var b api.CoordinateRequest
			err := readJSON(r, &b)
			return wire.CoordinateReq{Requests: b.Requests}, err
		},
		fromWire: wire.DecodeCoordinateReq,
		serve:    (*Server).coordinate,
		putReply: func(e *wire.Enc, r api.CoordinateResponse) { wire.PutResponses(e, r.Responses) },
	},
	&op[wire.CreateSessionReq, api.CreateSessionResponse]{
		name: "create", kind: wire.KindCreateSession, pattern: "POST /v1/sessions",
		fromHTTP: func(r *http.Request) (wire.CreateSessionReq, error) {
			var b api.CreateSessionRequest
			err := readJSON(r, &b)
			return wire.CreateSessionReq{ID: b.ID, ParkUnsafe: b.ParkUnsafe}, err
		},
		fromWire: wire.DecodeCreateSessionReq,
		// A named create belongs to the name's owner; an auto-named one
		// is served wherever it lands (the registry generates self-owned
		// names).
		key:      func(q wire.CreateSessionReq) string { return q.ID },
		class:    gated, // creates do no store work: they settle zero
		serve:    (*Server).createSession,
		putReply: func(e *wire.Enc, r api.CreateSessionResponse) { e.String(r.ID) },
		getReply: func(d *wire.Dec) api.CreateSessionResponse { return api.CreateSessionResponse{ID: d.String()} },
	},
	&op[wire.JoinReq, api.Update]{
		name: "join", kind: wire.KindJoin, pattern: "POST /v1/sessions/{id}/join",
		fromHTTP: func(r *http.Request) (wire.JoinReq, error) {
			var b api.JoinRequest
			err := readJSON(r, &b)
			return wire.JoinReq{Session: sessionOf(r), Query: b.Query}, err
		},
		fromWire: wire.DecodeJoinReq,
		key:      func(q wire.JoinReq) string { return q.Session },
		class:    gated,
		serve: func(s *Server, ctx context.Context, q wire.JoinReq, _ bool) (api.Update, int, error) {
			return s.sessionEvent(ctx, q.Session, stream.Event{Kind: stream.JoinEvent, Query: q.Query})
		},
		putReply: wire.PutUpdate, getReply: wire.GetUpdate, cost: updateCost,
	},
	&op[wire.LeaveReq, api.Update]{
		name: "leave", kind: wire.KindLeave, pattern: "POST /v1/sessions/{id}/leave",
		fromHTTP: func(r *http.Request) (wire.LeaveReq, error) {
			var b api.LeaveRequest
			err := readJSON(r, &b)
			return wire.LeaveReq{Session: sessionOf(r), QueryID: b.ID}, err
		},
		fromWire: wire.DecodeLeaveReq,
		key:      func(q wire.LeaveReq) string { return q.Session },
		class:    metered,
		serve: func(s *Server, ctx context.Context, q wire.LeaveReq, _ bool) (api.Update, int, error) {
			return s.sessionEvent(ctx, q.Session, stream.Event{Kind: stream.LeaveEvent, ID: q.QueryID})
		},
		putReply: wire.PutUpdate, getReply: wire.GetUpdate, cost: updateCost,
	},
	&op[wire.StatusReq, api.SessionStatus]{
		name: "status", kind: wire.KindStatus, pattern: "GET /v1/sessions/{id}",
		fromHTTP: func(r *http.Request) (wire.StatusReq, error) {
			return wire.StatusReq{Session: sessionOf(r), Trace: r.URL.Query().Get("trace") == "1"}, nil
		},
		fromWire: wire.DecodeStatusReq,
		key:      func(q wire.StatusReq) string { return q.Session },
		serve:    (*Server).sessionStatus,
		putReply: wire.PutSessionStatus, getReply: wire.GetSessionStatus,
	},
	&op[wire.SessionReq, none]{
		name: "delete", kind: wire.KindDeleteSession, pattern: "DELETE /v1/sessions/{id}",
		fromHTTP: func(r *http.Request) (wire.SessionReq, error) { return wire.SessionReq{Session: sessionOf(r)}, nil },
		fromWire: wire.DecodeSessionReq,
		key:      func(q wire.SessionReq) string { return q.Session },
		serve:    (*Server).deleteSession,
	},
	&op[wire.SessionReq, none]{
		// No HTTP equivalent: HTTP clients poll session status.
		name: "subscribe", kind: wire.KindSubscribe,
		fromWire: wire.DecodeSessionReq,
		key:      func(q wire.SessionReq) string { return q.Session },
		// Push flows only from a session's owner (the owner's session
		// loop feeds its hub), so a misplaced subscribe answers
		// route_moved rather than silently never delivering.
		local: true,
		serve: func(s *Server, _ context.Context, q wire.SessionReq, _ bool) (none, int, error) {
			_, err := s.reg.get(q.Session)
			return none{}, http.StatusOK, err
		},
		// The backlog flushes after the reply, so the client observes
		// "subscribed" before the first notification.
		then: func(s *Server, wc *wireConn, q wire.SessionReq) { s.push.subscribe(wc, q.Session) },
	},
	&op[none, api.Health]{
		name: "health", kind: wire.KindHealth, pattern: "GET /healthz",
		serve: reading((*Server).health), putReply: wire.PutHealth,
	},
	&op[none, api.ClusterStatus]{
		name: "cluster", kind: wire.KindCluster, pattern: "GET /v1/cluster",
		serve: reading((*Server).clusterStatus), putReply: wire.PutClusterStatus,
	},
	// The operator surfaces are HTTP only: their DTOs have no binary
	// encoding.
	&op[none, api.RecoveryStatus]{name: "recovery", pattern: "GET /v1/recovery", serve: reading((*Server).recoveryStatus)},
	&op[none, api.Metrics]{name: "metrics", pattern: "GET /metrics", serve: reading((*Server).metricsSnapshot)},
	&op[none, api.TenantsStatus]{name: "tenants", pattern: "GET /v1/tenants", serve: reading((*Server).tenantsStatus)},
}

// wireOps indexes the table by request kind for the binary dispatcher.
var wireOps = func() (byKind [wire.KindReply]operation) {
	for _, o := range ops {
		if _, kind, _ := o.route(); kind != 0 {
			byKind[kind] = o
		}
	}
	return byKind
}()
