package wire

import (
	"fmt"

	"entangled/internal/api"
	"entangled/internal/eq"
)

// Kind discriminates message payloads. A client-to-server kind names
// an operation of the table in ops.go or one of the two envelopes
// around one; server-to-client frames are either a Reply correlated to
// a request id or an unsolicited Push.
type Kind uint8

const (
	KindCoordinate    Kind = 1
	KindCreateSession Kind = 2
	KindJoin          Kind = 3
	KindLeave         Kind = 4
	KindStatus        Kind = 5
	KindDeleteSession Kind = 6
	KindSubscribe     Kind = 7
	KindHealth        Kind = 8
	// KindForward wraps another request for node-to-node forwarding
	// inside a cluster: origin metadata, then the inner kind and its
	// body verbatim. Forwarded frames are terminal — a receiver that
	// does not own the target answers route_moved instead of forwarding
	// again, so a request crosses at most one node boundary.
	KindForward Kind = 9
	KindCluster Kind = 10
	// KindTenant wraps another client request with a tenant identity
	// for admission accounting: the tenant name, then the inner kind
	// and its body verbatim to the end of the frame (the binary
	// analogue of the HTTP X-Tenant header). The envelope must be
	// outermost: tenant-in-tenant and tenant-in-forward are protocol
	// errors, and forwards never carry one — admission is decided and
	// accounted at the edge node.
	KindTenant Kind = 11

	// KindReply answers the request with the same id.
	KindReply Kind = 0x80
	// KindPush is an unsolicited server notification (id 0).
	KindPush Kind = 0x81
)

// String names the kind for diagnostics: a request kind by its
// operation's name.
func (k Kind) String() string {
	for _, r := range Ops {
		if r.Kind == k && k != 0 {
			return r.Name
		}
	}
	switch k {
	case KindForward:
		return "forward"
	case KindTenant:
		return "tenant"
	case KindReply:
		return "reply"
	case KindPush:
		return "push"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Header is the fixed prefix of every frame payload: the message kind
// and the pipelining id correlating replies to requests (0 for push).
type Header struct {
	Kind Kind
	ID   uint64
}

// PutHeader appends a message header.
func PutHeader(e *Enc, h Header) {
	e.Byte(byte(h.Kind))
	e.Uvarint(h.ID)
}

// GetHeader reads a message header.
func GetHeader(d *Dec) Header {
	return Header{Kind: Kind(d.Byte()), ID: d.Uvarint()}
}

// --- request bodies (client to server) ---

// CoordinateReq is the body of a KindCoordinate request.
type CoordinateReq struct {
	Requests []api.Request
	// slab holds the slices of a batch the server decoded, from a frame
	// or an HTTP body; nil for one a caller built.
	slab *batchSlab
}

// Encode appends the request body.
func (m CoordinateReq) Encode(e *Enc) { PutRequests(e, m.Requests) }

// DecodeCoordinateReq reads a KindCoordinate body into a pooled slab:
// its slices stay valid until Release.
func DecodeCoordinateReq(d *Dec) CoordinateReq {
	s := slabs.Get().(*batchSlab)
	return CoordinateReq{Requests: getRequests(d, s), slab: s}
}

// Release hands the slab m was decoded into back to the pool. Call it
// once, when nothing reads m.Requests' slices any more; a request a
// caller built, or one never released, just leaves its memory to the
// collector.
func (m CoordinateReq) Release() { m.slab.release() }

// CreateSessionReq is the body of a KindCreateSession request.
type CreateSessionReq struct {
	ID         string
	ParkUnsafe bool
}

// Encode appends the request body.
func (m CreateSessionReq) Encode(e *Enc) {
	e.String(m.ID)
	e.Bool(m.ParkUnsafe)
}

// DecodeCreateSessionReq reads a KindCreateSession body.
func DecodeCreateSessionReq(d *Dec) CreateSessionReq {
	return CreateSessionReq{ID: d.String(), ParkUnsafe: d.Bool()}
}

// JoinReq is the body of a KindJoin request.
type JoinReq struct {
	Session string
	Query   eq.Query
}

// Encode appends the request body.
func (m JoinReq) Encode(e *Enc) {
	e.String(m.Session)
	PutQuery(e, m.Query)
}

// DecodeJoinReq reads a KindJoin body.
func DecodeJoinReq(d *Dec) JoinReq {
	return JoinReq{Session: d.String(), Query: GetQuery(d)}
}

// LeaveReq is the body of a KindLeave request.
type LeaveReq struct {
	Session string
	QueryID string
}

// Encode appends the request body.
func (m LeaveReq) Encode(e *Enc) {
	e.String(m.Session)
	e.String(m.QueryID)
}

// DecodeLeaveReq reads a KindLeave body.
func DecodeLeaveReq(d *Dec) LeaveReq {
	return LeaveReq{Session: d.String(), QueryID: d.String()}
}

// StatusReq is the body of a KindStatus request.
type StatusReq struct {
	Session string
	Trace   bool
}

// Encode appends the request body.
func (m StatusReq) Encode(e *Enc) {
	e.String(m.Session)
	e.Bool(m.Trace)
}

// DecodeStatusReq reads a KindStatus body.
func DecodeStatusReq(d *Dec) StatusReq {
	return StatusReq{Session: d.String(), Trace: d.Bool()}
}

// SessionReq is the body of KindDeleteSession and KindSubscribe: just
// the session name.
type SessionReq struct {
	Session string
}

// Encode appends the request body.
func (m SessionReq) Encode(e *Enc) { e.String(m.Session) }

// DecodeSessionReq reads a session-name-only body.
func DecodeSessionReq(d *Dec) SessionReq { return SessionReq{Session: d.String()} }

// Forward is the body of a KindForward request: the origin node's name
// (diagnostics and metrics), a hop count (always 1 on the wire today —
// forwards are terminal — carried explicitly so the invariant is
// checkable), and the wrapped request verbatim. The reply to a forward
// is the reply the inner request would have received, so the origin
// relays the reply body byte-for-byte.
type Forward struct {
	Origin string
	Hops   int
	Kind   Kind
	Body   []byte
}

// Encode appends the forward envelope.
func (m Forward) Encode(e *Enc) {
	e.String(m.Origin)
	e.Int(m.Hops)
	e.Byte(byte(m.Kind))
	e.Uvarint(uint64(len(m.Body)))
	e.Raw(m.Body)
}

// DecodeForward reads a forward envelope.
func DecodeForward(d *Dec) Forward {
	f := Forward{Origin: d.String(), Hops: d.Int(), Kind: Kind(d.Byte())}
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		d.fail(fmt.Sprintf("forward body length %d exceeds remaining %d bytes", n, d.Remaining()))
		return f
	}
	f.Body = d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return f
}

// TenantReq is the body of a KindTenant envelope: the tenant identity,
// then the wrapped request verbatim — no length prefix, the inner body
// runs to the end of the frame. Decoding aliases the input buffer.
type TenantReq struct {
	Tenant string
	Kind   Kind
	Body   []byte
}

// PutTenantPrefix appends a tenant envelope up to the wrapped request's
// body, which the caller encodes in place after it.
func PutTenantPrefix(e *Enc, tenant string, kind Kind) {
	e.String(tenant)
	e.Byte(byte(kind))
}

// DecodeTenantReq reads a tenant envelope.
func DecodeTenantReq(d *Dec) TenantReq {
	t := TenantReq{Tenant: d.String(), Kind: Kind(d.Byte())}
	t.Body = d.b[d.off:]
	d.off = len(d.b)
	return t
}

// --- replies (server to client) ---

// A failed reply carries the same *api.Error the HTTP error envelope
// does — its Status in the reply's status field, the rest as PutError
// writes it — so a client decodes one typed error from either protocol
// and a forwarding node relays its peer's verbatim.

// PutReplyErr appends a complete error reply body.
func PutReplyErr(e *Enc, we *api.Error) {
	e.Bool(false)
	e.Int(we.Status)
	putErrorFields(e, we)
}

// PutReplyOK appends the success prefix of a reply body; the
// kind-specific payload follows.
func PutReplyOK(e *Enc, status int) {
	e.Bool(true)
	e.Int(status)
}

// GetReply reads a reply body's prefix: the HTTP-equivalent status on
// success, or the *api.Error the server answered. The kind-specific
// payload (on success) remains in the decoder.
func GetReply(d *Dec) (status int, err error) {
	ok := d.Bool()
	status = d.Int()
	if d.err != nil {
		return 0, d.err
	}
	if ok {
		return status, nil
	}
	we := getErrorFields(d)
	if d.err != nil {
		return 0, d.err
	}
	we.Status = status
	return status, we
}

// Push is an unsolicited server notification: a previously parked
// unsafe arrival in Session was admitted by the departure that cleared
// its conflict. Seq is the session update sequence number of the event
// that admitted it. The HTTP analogue is the client polling session
// status after its join came back 202 "parked":true.
type Push struct {
	Session string
	QueryID string
	Seq     int
}

// Encode appends the push body.
func (p Push) Encode(e *Enc) {
	e.String(p.Session)
	e.String(p.QueryID)
	e.Int(p.Seq)
}

// DecodePush reads a push body.
func DecodePush(d *Dec) Push {
	return Push{Session: d.String(), QueryID: d.String(), Seq: d.Int()}
}
