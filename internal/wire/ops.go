package wire

import (
	"net/http"
	"net/url"
	"strings"

	"entangled/internal/api"
)

// Req is a request as the binary protocol carries it; the *Req structs
// are the request types of both protocols.
type Req interface{ Encode(*Enc) }

// None is the request of operations that take no input and the reply
// of operations that answer with a bare status.
type None struct{}

// Encode appends nothing.
func (None) Encode(*Enc) {}

// Route is the part of an operation's description that does not depend
// on its request and reply types: what Ops lists.
type Route struct {
	// Name is the operation's one name, in error texts and Kind.String.
	Name string
	// Kind is the binary request kind; zero marks an HTTP-only
	// operation.
	Kind Kind
	// Method and Path are the HTTP verb and the path as http.ServeMux
	// spells it, {id} standing for the routing key; empty marks a
	// binary-only operation.
	Method, Path string
}

// PathSafe reports whether a session name can be the {id} of a path.
// Escaped, every name can, except the two dot segments: http.ServeMux
// cleans them away before it matches, and redirects to what is left —
// another operation's route. The server creates no such session.
func PathSafe(session string) bool { return session != "." && session != ".." }

// Op describes one operation of the service once, for both ends of
// both protocols and the forward hop between nodes. The server's table
// adds what serving takes over it; the client binds it to a request
// (Bind) and hands the call to a transport.
type Op[Q Req, R any] struct {
	Route
	// Key names the session the request routes by: the {id} of Path,
	// and what a cluster node looks up on the ring. Nil (or an empty
	// key) serves wherever the request lands.
	Key func(Q) string
	// GetReq reads the request from a frame (Q.Encode writes it); nil
	// when Q is None.
	GetReq func(*Dec) Q
	// PutReply and GetReply are the reply's binary codec; nil when R is
	// None or the operation is HTTP only.
	PutReply func(*Enc, R)
	GetReply func(*Dec) R
	// ToHTTP and FromHTTP map the request to and from what an HTTP
	// request carries: the key (in the path), the raw query string and
	// the JSON body — an api.*Request, which body decodes into. ToHTTP
	// is nil when the key says everything, both when Q is None.
	ToHTTP   func(Q) (query string, body any)
	FromHTTP func(key, query string, body func(any) error) (Q, error)
}

// fromBody is the FromHTTP of a request whose JSON body is a B. One
// that carries queries has a check: eq's JSON is its field tags, which
// cannot say that every atom names a relation, so this edge asks, before
// admission decides or charges, and refuses as GetQuery does on the other.
func fromBody[B any, Q Req](conv func(key string, b B) Q, check func(Q) error) func(key, query string, body func(any) error) (Q, error) {
	return func(key, _ string, body func(any) error) (Q, error) {
		var b B // zero: the decoder merges into what its target holds
		err := body(&b)
		q := conv(key, b)
		if err == nil && check != nil {
			if err = check(q); err != nil {
				err = &api.Error{Status: http.StatusBadRequest, Code: api.CodeBadRequest, Message: "decoding body: " + err.Error()}
			}
		}
		return q, err
	}
}

// coordinateFromHTTP is the coordinate row's FromHTTP: the batch decodes
// into a pooled slab's body, which release reset (fromBody's target is
// zero). A refused batch leaves its slab to the collector.
func coordinateFromHTTP(_, _ string, body func(any) error) (CoordinateReq, error) {
	s := slabs.Get().(*batchSlab)
	err := body(&s.body)
	q := CoordinateReq{Requests: s.body.Requests, slab: s}
	if err == nil {
		err = q.checkRels()
	}
	return q, err
}

// checkRels refuses a batch with an atom naming no relation, as a join.
func (m CoordinateReq) checkRels() error {
	for _, r := range m.Requests {
		for _, q := range r.Queries {
			if err := q.CheckRels(); err != nil {
				return &api.Error{Status: http.StatusBadRequest, Code: api.CodeBadRequest, Message: "decoding body: " + err.Error()}
			}
		}
	}
	return nil
}

// The operations of the service. Adding one is a row here (and in Ops),
// an entry with its serving method in internal/server/ops.go and a
// method on the client.
var (
	Coordinate = &Op[CoordinateReq, api.CoordinateResponse]{
		Route:    Route{Name: "coordinate", Kind: KindCoordinate, Method: "POST", Path: "/v1/coordinate"},
		GetReq:   DecodeCoordinateReq,
		PutReply: func(e *Enc, r api.CoordinateResponse) { PutResponses(e, r.Responses) },
		GetReply: func(d *Dec) api.CoordinateResponse { return api.CoordinateResponse{Responses: GetResponses(d)} },
		ToHTTP:   func(q CoordinateReq) (string, any) { return "", api.CoordinateRequest{Requests: q.Requests} },
		FromHTTP: coordinateFromHTTP,
	}
	CreateSession = &Op[CreateSessionReq, api.CreateSessionResponse]{
		Route: Route{Name: "create_session", Kind: KindCreateSession, Method: "POST", Path: "/v1/sessions"},
		// A named create belongs to the name's owner; an auto-named one
		// is served wherever it lands (the registry generates self-owned
		// names).
		Key:      func(q CreateSessionReq) string { return q.ID },
		GetReq:   DecodeCreateSessionReq,
		PutReply: func(e *Enc, r api.CreateSessionResponse) { e.String(r.ID) },
		GetReply: func(d *Dec) api.CreateSessionResponse { return api.CreateSessionResponse{ID: d.String()} },
		ToHTTP: func(q CreateSessionReq) (string, any) {
			return "", api.CreateSessionRequest{ID: q.ID, ParkUnsafe: q.ParkUnsafe}
		},
		FromHTTP: fromBody(func(_ string, b api.CreateSessionRequest) CreateSessionReq {
			return CreateSessionReq{ID: b.ID, ParkUnsafe: b.ParkUnsafe}
		}, nil),
	}
	Join = &Op[JoinReq, api.Update]{
		Route:  Route{Name: "join", Kind: KindJoin, Method: "POST", Path: "/v1/sessions/{id}/join"},
		Key:    func(q JoinReq) string { return q.Session },
		GetReq: DecodeJoinReq, PutReply: PutUpdate, GetReply: GetUpdate,
		ToHTTP: func(q JoinReq) (string, any) { return "", api.JoinRequest{Query: q.Query} },
		FromHTTP: fromBody(func(key string, b api.JoinRequest) JoinReq { return JoinReq{Session: key, Query: b.Query} },
			func(q JoinReq) error { return q.Query.CheckRels() }),
	}
	Leave = &Op[LeaveReq, api.Update]{
		Route:  Route{Name: "leave", Kind: KindLeave, Method: "POST", Path: "/v1/sessions/{id}/leave"},
		Key:    func(q LeaveReq) string { return q.Session },
		GetReq: DecodeLeaveReq, PutReply: PutUpdate, GetReply: GetUpdate,
		ToHTTP:   func(q LeaveReq) (string, any) { return "", api.LeaveRequest{ID: q.QueryID} },
		FromHTTP: fromBody(func(key string, b api.LeaveRequest) LeaveReq { return LeaveReq{Session: key, QueryID: b.ID} }, nil),
	}
	Status = &Op[StatusReq, api.SessionStatus]{
		Route:  Route{Name: "status", Kind: KindStatus, Method: "GET", Path: "/v1/sessions/{id}"},
		Key:    func(q StatusReq) string { return q.Session },
		GetReq: DecodeStatusReq, PutReply: PutSessionStatus, GetReply: GetSessionStatus,
		ToHTTP: func(q StatusReq) (string, any) {
			if q.Trace {
				return "trace=1", nil
			}
			return "", nil
		},
		FromHTTP: func(key, query string, _ func(any) error) (StatusReq, error) {
			v, _ := url.ParseQuery(query) // like http.Request.URL.Query: keep what parses
			return StatusReq{Session: key, Trace: v.Get("trace") == "1"}, nil
		},
	}
	DeleteSession = &Op[SessionReq, None]{
		Route:    Route{Name: "delete_session", Kind: KindDeleteSession, Method: "DELETE", Path: "/v1/sessions/{id}"},
		Key:      func(q SessionReq) string { return q.Session },
		GetReq:   DecodeSessionReq,
		FromHTTP: func(key, _ string, _ func(any) error) (SessionReq, error) { return SessionReq{Session: key}, nil },
	}
	// Subscribe registers the connection for push notifications about
	// one session. No HTTP form: push needs a persistent connection, so
	// HTTP clients poll session status.
	Subscribe = &Op[SessionReq, None]{
		Route:  Route{Name: "subscribe", Kind: KindSubscribe},
		Key:    func(q SessionReq) string { return q.Session },
		GetReq: DecodeSessionReq,
	}
	Health = &Op[None, api.Health]{
		Route:    Route{Name: "health", Kind: KindHealth, Method: "GET", Path: "/healthz"},
		PutReply: PutHealth, GetReply: GetHealth,
	}
	// Cluster is the node's membership view, ring parameters and
	// relation placements.
	Cluster = &Op[None, api.ClusterStatus]{
		Route:    Route{Name: "cluster", Kind: KindCluster, Method: "GET", Path: "/v1/cluster"},
		PutReply: PutClusterStatus, GetReply: GetClusterStatus,
	}
	// The operator surfaces are HTTP only: their DTOs have no binary
	// encoding.
	Recovery = &Op[None, api.RecoveryStatus]{Route: Route{Name: "recovery", Method: "GET", Path: "/v1/recovery"}}
	Metrics  = &Op[None, api.Metrics]{Route: Route{Name: "metrics", Method: "GET", Path: "/metrics"}}
	Tenants  = &Op[None, api.TenantsStatus]{Route: Route{Name: "tenants", Method: "GET", Path: "/v1/tenants"}}
)

// Ops lists every operation with its types erased, in table order:
// Kind.String names request kinds from it, the server's table must
// serve exactly these rows, and the conformance tests range over it.
var Ops = []*Route{
	&Coordinate.Route, &CreateSession.Route, &Join.Route, &Leave.Route, &Status.Route, &DeleteSession.Route,
	&Subscribe.Route, &Health.Route, &Cluster.Route, &Recovery.Route, &Metrics.Route, &Tenants.Route,
}

// Call is one request bound to its operation, with the slot its reply
// decodes into: the form in which every request leaves a process — to
// a server over either protocol, or to a session's owner over the
// forward hop.
type Call interface {
	Route() *Route
	// Key is the session the call routes by; empty when any node serves
	// it.
	Key() string
	// HTTP renders the call for the HTTP transport: the path (with its
	// query string), the JSON request body and the pointer a 2xx body
	// decodes into (either may be nil).
	HTTP() (path string, in, out any)
	// Encode appends the binary request body.
	Encode(*Enc)
	// DecodeReply reads a successful binary reply into the call.
	DecodeReply(rep Reply) error
}

// Bound is the Call of one operation.
type Bound[Q Req, R any] struct {
	Op    *Op[Q, R]
	Req   Q
	Reply R
}

// Bind pairs the operation with one request.
func (o *Op[Q, R]) Bind(q Q) *Bound[Q, R] { return &Bound[Q, R]{Op: o, Req: q} }

func (b *Bound[Q, R]) Route() *Route { return &b.Op.Route }
func (b *Bound[Q, R]) Encode(e *Enc) { b.Req.Encode(e) }

func (b *Bound[Q, R]) Key() string {
	if b.Op.Key == nil {
		return ""
	}
	return b.Op.Key(b.Req)
}

// HTTP is the one place a session name becomes part of a path.
func (b *Bound[Q, R]) HTTP() (path string, in, out any) {
	path = strings.Replace(b.Op.Path, "{id}", url.PathEscape(b.Key()), 1)
	if b.Op.ToHTTP != nil {
		var query string
		if query, in = b.Op.ToHTTP(b.Req); query != "" {
			path += "?" + query
		}
	}
	if _, bare := any(&b.Reply).(*None); !bare {
		out = &b.Reply
	}
	return path, in, out
}

// DecodeReply is the one place a binary reply body becomes a typed
// reply, whoever sent the request: the body must decode and be
// consumed exactly, and its buffer goes back. A caller ignores the
// reply of a call that failed.
func (b *Bound[Q, R]) DecodeReply(rep Reply) error {
	defer rep.Release()
	d := NewDec(rep.Body)
	if b.Op.GetReply != nil {
		b.Reply = b.Op.GetReply(d)
	}
	return d.Finish()
}
