package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"syscall"

	"entangled/internal/api"
	"entangled/internal/coord"
	"entangled/internal/eq"
	"entangled/internal/wire"
)

// Error is the service's one typed error (api.Error): the stable wire
// code, the remote message, the HTTP(-equivalent) Status, the Owner of
// a route_moved and the retry hint of a throttle. It unwraps to the
// sentinel the code names, so errors.Is(err, coord.ErrUnsafeArrival),
// errors.Is(err, api.ErrSessionNotFound) and friends hold across the
// network exactly as they do in-process — over either transport.
type Error = api.Error

// Notification is a server-push event (wire.Push): the previously
// parked arrival QueryID in Session was admitted by the departure that
// cleared its conflict (Seq is that event's session sequence number).
// Push arrives over the binary transport only; HTTP clients poll
// session status.
type Notification = wire.Push

// transport is one wire protocol speaking the service's API. Every
// operation goes through call as a wire.Call — the operation of wire's
// table bound to its request; all implementations return identical
// DTOs and identical typed errors for the same server state.
type transport interface {
	call(ctx context.Context, c wire.Call) error
	subscribe(ctx context.Context, session string, fn func(Notification)) (func(), error)
	close() error
}

// Options configures a Client.
type Options struct {
	// HTTPClient overrides the HTTP transport's client; nil means
	// http.DefaultClient. The transport uses a copy that never follows a
	// redirect: the service issues none, and a path a server rewrote is
	// a different operation. Ignored by the binary transport.
	HTTPClient *http.Client
	// Tenant is the admission identity sent with every request: the
	// X-Tenant header over HTTP, a wire.KindTenant envelope over the
	// binary protocol. Empty means the server's default tenant.
	Tenant string
}

// Client is a typed Go client for the coordination service
// (internal/server). The zero value is not usable; construct with New.
type Client struct {
	t transport
}

// New returns a client for the service at baseURL. "http://host:port"
// (or https) selects the HTTP/JSON protocol; "tcp://host:port" (or
// "binary://") selects the binary wire protocol on a persistent
// pipelined connection that redials transparently after a drop.
func New(baseURL string, opts Options) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	switch u.Scheme {
	case "http", "https":
		hc := *http.DefaultClient
		if opts.HTTPClient != nil {
			hc = *opts.HTTPClient
		}
		hc.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
		return &Client{t: &httpTransport{base: strings.TrimRight(u.String(), "/"), hc: &hc, tenant: opts.Tenant}}, nil
	case "tcp", "binary":
		return &Client{t: newBinaryTransport(u.Host, opts.Tenant)}, nil
	}
	return nil, fmt.Errorf("client: unsupported scheme %q (want http, https, tcp or binary)", u.Scheme)
}

// Close releases the client's transport: the binary transport's
// persistent connection closes and its subscriptions end; the HTTP
// transport has nothing to release.
func (c *Client) Close() error { return c.t.close() }

// Request is one coordination request of a batch.
type Request = api.Request

// Response is one request's decoded outcome; Err is typed (errors.Is
// sees the coord sentinels).
type Response struct {
	ID     string
	Result *coord.Result
	Err    error
}

// CoordinateBatch serves a batch of independent requests in one call.
// Per-request failures come back in the matching Response.Err; the
// returned error covers transport and envelope failures only.
func (c *Client) CoordinateBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	rep, err := invoke(ctx, c.t, wire.Coordinate, wire.CoordinateReq{Requests: reqs})
	if err != nil {
		return nil, err
	}
	resps := rep.Responses
	if len(resps) != len(reqs) {
		return nil, fmt.Errorf("client: %d responses for %d requests", len(resps), len(reqs))
	}
	out := make([]Response, len(resps))
	for i, r := range resps {
		out[i] = Response{ID: r.ID, Result: r.Result}
		if r.Error != nil { // a nil *Error must not become a non-nil error
			out[i].Err = r.Error
		}
	}
	return out, nil
}

// Coordinate serves one coordination request: the remote analogue of
// engine.Coordinate. The result's DBQueries is the exact per-request
// cost the server metered.
func (c *Client) Coordinate(ctx context.Context, qs []eq.Query) (*coord.Result, error) {
	resps, err := c.CoordinateBatch(ctx, []Request{{Queries: qs}})
	if err != nil {
		return nil, err
	}
	if resps[0].Err != nil {
		return nil, resps[0].Err
	}
	return resps[0].Result, nil
}

// Session is a handle on a named remote streaming session.
type Session struct {
	c *Client
	// ID is the session's name in the registry.
	ID string
}

// CreateSession opens a streaming session on the server. An empty id
// asks the server to pick a name; parkUnsafe selects park-and-retry
// admission for unsafe arrivals.
func (c *Client) CreateSession(ctx context.Context, id string, parkUnsafe bool) (*Session, error) {
	rep, err := invoke(ctx, c.t, wire.CreateSession, wire.CreateSessionReq{ID: id, ParkUnsafe: parkUnsafe})
	if err != nil {
		return nil, err
	}
	return &Session{c: c, ID: rep.ID}, nil
}

// Session returns a handle on an existing session by name, without a
// round trip.
func (c *Client) Session(id string) *Session { return &Session{c: c, ID: id} }

// Join admits one arriving query. A parked arrival (HTTP 202) returns
// the update with Parked set and a nil error; a rejected arrival
// returns a typed error for which errors.Is(err,
// coord.ErrUnsafeArrival) holds.
func (s *Session) Join(ctx context.Context, q eq.Query) (api.Update, error) {
	return invoke(ctx, s.c.t, wire.Join, wire.JoinReq{Session: s.ID, Query: q})
}

// Leave departs the live query with the given query ID.
func (s *Session) Leave(ctx context.Context, queryID string) (api.Update, error) {
	return invoke(ctx, s.c.t, wire.Leave, wire.LeaveReq{Session: s.ID, QueryID: queryID})
}

// Status reads the session's current state; includeTrace asks for the
// full coordination trace (the one a traced batch run over the live
// queries would produce).
func (s *Session) Status(ctx context.Context, includeTrace bool) (*api.SessionStatus, error) {
	return read(ctx, s.c.t, wire.Status, wire.StatusReq{Session: s.ID, Trace: includeTrace})
}

// Close deletes the session from the registry; its goroutine drains
// and exits.
func (s *Session) Close(ctx context.Context) error {
	_, err := invoke(ctx, s.c.t, wire.DeleteSession, wire.SessionReq{Session: s.ID})
	return err
}

// Subscribe registers fn for this session's push notifications: each
// previously parked arrival a departure admits is delivered exactly
// once, surviving connection drops (the transport redials,
// re-subscribes, and the server flushes what accumulated while the
// client was away). fn is called from the connection's read loop — it
// must not block. The returned stop function ends the subscription.
// Only the binary transport pushes; over HTTP Subscribe fails (poll
// Status instead).
func (s *Session) Subscribe(ctx context.Context, fn func(Notification)) (func(), error) {
	return s.c.t.subscribe(ctx, s.ID, fn)
}

// Health reads the health endpoint; a draining server still answers
// with Status "draining" (the work endpoints are the ones that
// reject).
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	return read(ctx, c.t, wire.Health, wire.None{})
}

// Recovery reads /v1/recovery: what the server replayed from its
// durable backend at startup. Enabled is false for an in-memory
// server. HTTP only.
func (c *Client) Recovery(ctx context.Context) (*api.RecoveryStatus, error) {
	return read(ctx, c.t, wire.Recovery, wire.None{})
}

// Metrics reads /metrics. HTTP only.
func (c *Client) Metrics(ctx context.Context) (*api.Metrics, error) {
	return read(ctx, c.t, wire.Metrics, wire.None{})
}

// Tenants reads /v1/tenants: every tenant's effective admission policy
// and live accounting (enabled=false when the server runs without
// admission). HTTP only.
func (c *Client) Tenants(ctx context.Context) (*api.TenantsStatus, error) {
	return read(ctx, c.t, wire.Tenants, wire.None{})
}

// IsRetryable reports whether an error may succeed on retry: a typed
// service error whose code the error contract marks retryable
// (DESIGN.md, "Error contract": backpressure, a throttle — retry after
// its hint —, degraded mode, a server-side timeout, an indeterminate
// ack, a cluster routing miss), or a transport-level connection drop
// (the binary transport redials on the next call; HTTP opens a fresh
// connection). A dropped connection, timeout, or indeterminate ack
// means the request's fate is unknown — retry only operations that are
// idempotent or whose duplication the caller can detect (see FateKnown
// and Retry.DoFateKnown).
func IsRetryable(err error) bool {
	var e *Error
	if errors.As(err, &e) {
		return e.Retryable()
	}
	switch {
	case errors.Is(err, wire.ErrConnClosed),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.EPIPE):
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}
