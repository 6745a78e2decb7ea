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

// op is one entry of the serving table: the operation as internal/wire
// describes it for both ends of the wire (name, kind, route, key,
// codecs), and over it what only serving takes. serveHTTP and serveWire
// are the two thin adapters; run is the policy they share.
type op[Q wire.Req, R any] struct {
	*wire.Op[Q, R]
	// local marks an operation only the owner itself can serve: a
	// misplaced request answers route_moved instead of forwarding.
	local bool
	class class
	// serve runs the operation on the node that owns it and returns the
	// reply with its HTTP(-equivalent) status.
	serve func(*Server, context.Context, Q, bool) (R, int, error)
	// cost is the DBQueries a successful reply settles; nil means zero.
	cost func(R) int64
	// then runs on the binary connection after the reply was written.
	then func(*Server, *wireConn, Q)
	// done runs on either protocol once a reply has been rendered —
	// written to the binary connection, or encoded into the HTTP
	// response: what it lets go is never read again.
	done func(R)
}

// operation is the table's element type: op with its request and reply
// types erased.
type operation interface {
	route() *wire.Route
	serveHTTP(s *Server, w http.ResponseWriter, r *http.Request)
	serveWire(s *Server, ctx context.Context, wc *wireConn, id uint64, d *wire.Dec, forwarded bool)
}

func (o *op[Q, R]) route() *wire.Route { return &o.Route }

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
	if o.Key != nil {
		if key := o.Key(q); key != "" {
			if node, remote := s.remoteOwner(key); remote {
				if forwarded || o.local {
					return rep, 0, s.opts.Cluster.RouteMoved("session", key)
				}
				// The owner's reply decodes into the operation's reply type, so
				// the edge renders it as if it had served the request itself,
				// status included (a parked join stays 202 across the hop); the
				// owner's *api.Error relays verbatim.
				call := o.Bind(q)
				if status, err = s.opts.Cluster.Forward(ctx, node, call); err == nil {
					rep = call.Reply
				}
				return rep, status, err
			}
		}
	}
	return o.serve(s, ctx, q, forwarded)
}

// serveHTTP is the HTTP adapter: read the request, run, render the
// status with the reply DTO or the error envelope.
func (o *op[Q, R]) serveHTTP(s *Server, w http.ResponseWriter, r *http.Request) {
	var q Q
	if o.FromHTTP != nil {
		// The binary protocol refuses frames above wire.MaxFrame; HTTP
		// bodies stop at the same size.
		r.Body = http.MaxBytesReader(w, r.Body, wire.MaxFrame)
		var err error
		if q, err = o.FromHTTP(r.PathValue("id"), r.URL.RawQuery, func(v any) error { return readJSON(r, v) }); err != nil {
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
	if err == nil && o.done != nil {
		o.done(rep)
	}
}

// serveWire is the binary adapter. The request decodes synchronously
// (its frame's pooled buffer goes back when dispatch returns) and runs
// on its own goroutine, so pipelined requests overlap, up to
// maxInflight per connection.
func (o *op[Q, R]) serveWire(s *Server, ctx context.Context, wc *wireConn, id uint64, d *wire.Dec, forwarded bool) {
	var q Q
	if o.GetReq != nil {
		q = o.GetReq(d)
	}
	if err := d.Finish(); err != nil {
		wc.badBody(id, err)
		return
	}
	wc.begin()
	go func() {
		defer wc.end()
		rep, status, err := o.run(s, ctx, q, forwarded)
		if err != nil {
			wc.replyErr(id, err)
			return
		}
		wc.send(wire.Header{Kind: wire.KindReply, ID: id}, func(e *wire.Enc) {
			wire.PutReplyOK(e, status)
			if o.PutReply != nil {
				o.PutReply(e, rep)
			}
		})
		if o.done != nil {
			o.done(rep)
		}
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

// readJSON is the one step where a client's JSON enters the server:
// one read of the whole body into a pooled buffer (wire.ReadBody) and
// one decode over all of it, so bytes after the JSON value refuse the
// request as on the binary protocol. The buffer goes back as soon as
// Unmarshal has copied the strings out. The body is already capped
// (serveHTTP); overrunning the cap is 413, anything else undecodable
// 400, both the typed bad_request.
func readJSON(r *http.Request, v any) error {
	p := wire.GetBuf()
	body, err := wire.ReadBody(r.Body, p, r.ContentLength)
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	wire.PutBuf(p)
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

// reading adapts a parameterless snapshot to a serve function.
func reading[R any](snapshot func(*Server) R) func(*Server, context.Context, wire.None, bool) (R, int, error) {
	return func(s *Server, _ context.Context, _ wire.None, _ bool) (R, int, error) {
		return snapshot(s), http.StatusOK, nil
	}
}

func updateCost(u api.Update) int64 { return u.Stats.DBQueries }

// releaseResults is the coordinate row's done: every result of a
// rendered batch reply hands its value maps back to coord
// ((*Server).coordinate says why nothing else holds them).
func releaseResults(r api.CoordinateResponse) {
	for _, resp := range r.Responses {
		resp.Result.Release()
	}
}

// ops is the serving table: every operation of wire.Ops appears here
// exactly once, in the same order. New registers the HTTP routes by
// ranging over it, wireOps indexes it by kind for the binary
// dispatcher, and the cross-codec tests iterate it.
var ops = []operation{
	&op[wire.CoordinateReq, api.CoordinateResponse]{Op: wire.Coordinate, serve: (*Server).coordinate, done: releaseResults},
	// Creates do no store work: they settle zero.
	&op[wire.CreateSessionReq, api.CreateSessionResponse]{Op: wire.CreateSession, class: gated, serve: (*Server).createSession},
	&op[wire.JoinReq, api.Update]{
		Op: wire.Join, class: gated, cost: updateCost,
		serve: func(s *Server, ctx context.Context, q wire.JoinReq, _ bool) (api.Update, int, error) {
			return s.sessionEvent(ctx, q.Session, stream.Event{Kind: stream.JoinEvent, Query: q.Query})
		},
	},
	&op[wire.LeaveReq, api.Update]{
		Op: wire.Leave, class: metered, cost: updateCost,
		serve: func(s *Server, ctx context.Context, q wire.LeaveReq, _ bool) (api.Update, int, error) {
			return s.sessionEvent(ctx, q.Session, stream.Event{Kind: stream.LeaveEvent, ID: q.QueryID})
		},
	},
	&op[wire.StatusReq, api.SessionStatus]{Op: wire.Status, serve: (*Server).sessionStatus},
	&op[wire.SessionReq, wire.None]{Op: wire.DeleteSession, serve: (*Server).deleteSession},
	&op[wire.SessionReq, wire.None]{
		Op: wire.Subscribe,
		// Push flows only from a session's owner (the events served in
		// the owner's turns feed its hub), so a misplaced subscribe
		// answers route_moved rather than silently never delivering.
		local: true,
		serve: func(s *Server, _ context.Context, q wire.SessionReq, _ bool) (wire.None, int, error) {
			_, err := s.reg.get(q.Session)
			return wire.None{}, http.StatusOK, err
		},
		// The backlog flushes after the reply, so the client observes
		// "subscribed" before the first notification.
		then: func(s *Server, wc *wireConn, q wire.SessionReq) { s.push.subscribe(wc, q.Session) },
	},
	&op[wire.None, api.Health]{Op: wire.Health, serve: reading((*Server).health)},
	&op[wire.None, api.ClusterStatus]{Op: wire.Cluster, serve: reading((*Server).clusterStatus)},
	&op[wire.None, api.RecoveryStatus]{Op: wire.Recovery, serve: reading((*Server).recoveryStatus)},
	&op[wire.None, api.Metrics]{Op: wire.Metrics, serve: reading((*Server).metricsSnapshot)},
	&op[wire.None, api.TenantsStatus]{Op: wire.Tenants, serve: reading((*Server).tenantsStatus)},
}

// wireOps indexes the table by request kind for the binary dispatcher.
var wireOps = func() (byKind [wire.KindReply]operation) {
	for _, o := range ops {
		if kind := o.route().Kind; kind != 0 {
			byKind[kind] = o
		}
	}
	return byKind
}()
