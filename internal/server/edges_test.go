package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"entangled/internal/admission"
	"entangled/internal/api"
	"entangled/internal/client"
	"entangled/internal/cluster"
	"entangled/internal/engine"
	"entangled/internal/server"
	"entangled/internal/wire"
	"entangled/internal/workload"
)

// TestHTTPStatusesOfSessionEvents: a deleted session answers 204, a
// parked join 202 and an admitted one 200, each as the status line.
func TestHTTPStatusesOfSessionEvents(t *testing.T) {
	srv, err := server.New(engine.New(workload.NewStore(1, 8, 0), engine.Options{}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if w := post(srv, "/v1/sessions", []byte(`{"id":"s","park_unsafe":true}`)); w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	for i, q := range unsafeTrio("h") {
		body, _ := json.Marshal(api.JoinRequest{Query: q})
		want := http.StatusOK
		if i == 2 {
			want = http.StatusAccepted
		}
		if w := post(srv, "/v1/sessions/s/join", body); w.Code != want {
			t.Fatalf("join %s: %d %s, want %d", q.ID, w.Code, w.Body, want)
		}
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/v1/sessions/s", nil))
	if w.Code != http.StatusNoContent || w.Body.Len() != 0 {
		t.Fatalf("delete: %d %q, want 204 and no body", w.Code, w.Body)
	}
}

// TestDotSessionNamesRefused: neither protocol creates a session named
// by a dot segment, which no path can carry.
func TestDotSessionNamesRefused(t *testing.T) {
	h := newAdmissionLoopback(t, nil, server.Options{})
	for _, proto := range []string{"http", "binary"} {
		for _, name := range []string{".", ".."} {
			_, err := h.client(proto, "").CreateSession(context.Background(), name, false)
			if e := wantCode(t, err, api.CodeBadRequest); e.Status != http.StatusBadRequest {
				t.Fatalf("%s: create %q: status %d", proto, name, e.Status)
			}
		}
	}
}

// TestBinaryKindZeroKillsTheConnection: kind 0 marks the HTTP-only
// operations, so no frame can name one; the server hangs up on it.
func TestBinaryKindZeroKillsTheConnection(t *testing.T) {
	h := newAdmissionLoopback(t, nil, server.Options{})
	nc, err := net.Dial("tcp", h.binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	f, _ := wire.EncodeFrame(nil, wire.Header{Kind: 0, ID: 1}, nil)
	if _, err := nc.Write(append([]byte(wire.Magic), f...)); err != nil {
		t.Fatal(err)
	}
	if n, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("a kind-0 frame: read %d bytes, %v; want the connection closed", n, err)
	}
}

// TestRecoveryStatusWithoutBackend: a server without durability answers
// that it has none, and is not degraded.
func TestRecoveryStatusWithoutBackend(t *testing.T) {
	h := newAdmissionLoopback(t, nil, server.Options{})
	rec, err := h.client("http", "").Recovery(context.Background())
	if err != nil || rec.Enabled || rec.Degraded || rec.DegradedCause != "" {
		t.Fatalf("recovery without a backend: %+v, %v", rec, err)
	}
}

// TestMetricsCountWhatWasServed: the session event counter takes one
// per event, and the batch counters the requests and the store queries
// their results report; sessions are listed by name.
func TestMetricsCountWhatWasServed(t *testing.T) {
	h := newAdmissionLoopback(t, nil, server.Options{})
	ctx := context.Background()
	c := h.client("binary", "")
	sess, err := c.CreateSession(ctx, "m", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if _, err := sess.Join(ctx, workload.ChainQuery(i, 0, 64)); err != nil {
			t.Fatal(err)
		}
	}
	resps, err := c.CoordinateBatch(ctx, []client.Request{{ID: "a", Queries: workload.ListQueriesAt(4, 1)}, {ID: "b", Queries: workload.ListQueriesAt(4, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	var dbq int64
	for _, r := range resps {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		dbq += r.Result.DBQueries
	}
	m, err := h.client("http", "").Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "l", false); err != nil {
		t.Fatal(err)
	}
	if m, err = h.client("http", "").Metrics(ctx); err != nil || len(m.Sessions.PerSession) != 2 || m.Sessions.PerSession[0].ID != "l" {
		t.Fatalf("per-session metrics %+v (%v), want l before m", m.Sessions.PerSession, err)
	}
	if m.Sessions.Events != 2 || m.Coordinate.Requests != 2 || m.Coordinate.DBQueries != dbq || dbq == 0 {
		t.Fatalf("metrics: %d session events, %d batch requests, %d store queries; want 2, 2, %d",
			m.Sessions.Events, m.Coordinate.Requests, m.Coordinate.DBQueries, dbq)
	}
}

// TestThrottledBatchRequestsCounted: a batch request the tenant's policy
// refuses is counted as requested and rejected, once each.
func TestThrottledBatchRequestsCounted(t *testing.T) {
	h := newAdmissionLoopback(t, &admission.Config{Tenants: map[string]admission.Policy{"t": {Rate: 1e-9, Burst: 1}}}, server.Options{})
	ctx := context.Background()
	c := h.client("http", "t")
	reqs := []client.Request{{ID: "a", Queries: workload.ListQueriesAt(2, 1)}, {ID: "b", Queries: workload.ListQueriesAt(2, 2)}, {ID: "c", Queries: workload.ListQueriesAt(2, 3)}}
	resps, err := c.CoordinateBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Err != nil || resps[1].Err == nil || resps[2].Err == nil {
		t.Fatalf("a burst of 1: errors %v, %v, %v; want the first admitted alone", resps[0].Err, resps[1].Err, resps[2].Err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Coordinate.Requests != 3 || m.Coordinate.Rejected != 2 {
		t.Fatalf("metrics: %d requests, %d rejected; want 3, 2", m.Coordinate.Requests, m.Coordinate.Rejected)
	}
}

// TestLeaveChargesTheTenant: a leave is never refused, but the store
// queries it spends, here on the parked query its departure admits,
// land on its tenant's budget.
func TestLeaveChargesTheTenant(t *testing.T) {
	h := newAdmissionLoopback(t, &admission.Config{}, server.Options{})
	ctx := context.Background()
	c := h.client("binary", "t")
	sess, err := c.CreateSession(ctx, "l", true)
	if err != nil {
		t.Fatal(err)
	}
	spent := func() int64 {
		ts, err := h.client("http", "").Tenants(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, tn := range ts.Tenants {
			if tn.Tenant == "t" {
				return tn.DBQueriesSpent
			}
		}
		t.Fatalf("no tenant t in %+v", ts.Tenants)
		return 0
	}
	trio := unsafeTrio("l")
	for _, q := range trio {
		if _, err := sess.Join(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	before := spent()
	up, err := sess.Leave(ctx, trio[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	if after := spent(); up.Stats.DBQueries == 0 || after != before+up.Stats.DBQueries {
		t.Fatalf("a leave of %d store queries took the tenant's spend from %d to %d", up.Stats.DBQueries, before, after)
	}
}

// pipeListener accepts one connection: the server end of a pipe, whose
// writes wait for the test to read.
type pipeListener struct {
	conn   chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestCloseLetsBinaryRepliesOut: Close waits for a binary request's
// reply to be written before it closes the connection, however slowly
// the client reads it.
func TestCloseLetsBinaryRepliesOut(t *testing.T) {
	srv, err := server.New(engine.New(workload.NewStore(1, 8, 0), engine.Options{}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srvEnd, cliEnd := net.Pipe()
	defer cliEnd.Close()
	l := &pipeListener{conn: make(chan net.Conn, 1), closed: make(chan struct{})}
	l.conn <- srvEnd
	go srv.ServeWire(l)
	cliEnd.SetDeadline(time.Now().Add(10 * time.Second))
	f, _ := wire.EncodeFrame(nil, wire.Header{Kind: wire.KindHealth, ID: 7}, nil)
	if _, err := cliEnd.Write(append([]byte(wire.Magic), f...)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the reply's write now waits for a reader
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	time.Sleep(50 * time.Millisecond)
	payload, err := wire.ReadFrame(bufio.NewReader(cliEnd), nil)
	if err != nil {
		t.Fatalf("the reply in flight at Close: %v", err)
	}
	if h := wire.GetHeader(wire.NewDec(payload)); h.Kind != wire.KindReply || h.ID != 7 {
		t.Fatalf("read %+v, want the reply to request 7", h)
	}
	<-closed
	if _, err := cliEnd.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after Close: %v, want the connection closed", err)
	}
}

// TestThrottledBatchTouchesNoNode: a cluster node whose tenant is
// refused every request of a batch scatters nothing, so the batch is
// not counted in the fan-out histogram.
func TestThrottledBatchTouchesNoNode(t *testing.T) {
	adm := admission.NewController(admission.Config{Tenants: map[string]admission.Policy{"t": {Rate: 1e-9, Burst: 1}}})
	lc := newLoopCluster(t, 1, 1, 32, server.Options{Admission: adm})
	cn := lc.nodes[0]
	c, err := client.New(cn.hs.URL, client.Options{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, admitted := range []bool{true, false} {
		resps, err := c.CoordinateBatch(context.Background(), []client.Request{{ID: "r", Queries: workload.ListQueriesAt(2, 1)}})
		if err != nil || (resps[0].Err == nil) != admitted {
			t.Fatalf("batch %d: %v, %+v", i, err, resps)
		}
	}
	if fc := cn.router.Metrics().FanoutCounts; len(fc) == 0 || fc[0] != 1 {
		t.Fatalf("fan-out counts %v, want the admitted batch's alone", fc)
	}
}

// TestServeWireReturns: a listener that fails outside a drain is the
// caller's error; one Close stops is a clean return. A connection that
// opens with anything but the magic is closed unanswered.
func TestServeWireReturns(t *testing.T) {
	srv, err := server.New(engine.New(workload.NewStore(1, 8, 0), engine.Options{}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, drain := range []bool{false, true} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.ServeWire(ln) }()
		if drain {
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			nc.SetDeadline(time.Now().Add(10 * time.Second))
			f, _ := wire.EncodeFrame(nil, wire.Header{Kind: wire.KindHealth, ID: 1}, nil)
			nc.Write(append([]byte("EWP0"), f...))
			if n, err := nc.Read(make([]byte, 1)); err == nil {
				t.Fatalf("a connection that opened with EWP0 was answered %d bytes", n)
			}
			nc.Close()
			srv.Close()
		} else {
			time.Sleep(10 * time.Millisecond)
			ln.Close()
		}
		if err := <-served; (err == nil) != drain {
			t.Fatalf("ServeWire after the listener closed (draining %v): %v", drain, err)
		}
	}
}

// TestEnvelopeRefusals: an envelope whose own fields do not decode is a
// refused request on a connection that lives on; an envelope the
// protocol forbids where it stands kills the connection: a tenant
// envelope around another envelope, one inside a forward, and a
// forward that has travelled more than one hop.
func TestEnvelopeRefusals(t *testing.T) {
	r, err := cluster.New(cluster.Config{Self: "a", Nodes: []cluster.Node{{Name: "a", Addr: "a:1"}, {Name: "b", Addr: "b:1"}}},
		cluster.Options{Dial: func(string) cluster.PeerConn { return answeringPeer{} }})
	if err != nil {
		t.Fatal(err)
	}
	h := newAdmissionLoopback(t, nil, server.Options{Cluster: r})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second) // an unanswered request fails the test
	defer cancel()
	health := func(e *wire.Enc) {}
	tenant := func(kind wire.Kind, inner func(*wire.Enc)) func(*wire.Enc) {
		return func(e *wire.Enc) { wire.PutTenantPrefix(e, "ten", kind); inner(e) }
	}
	forward := func(hops int, kind wire.Kind, inner func(*wire.Enc)) func(*wire.Enc) {
		var body wire.Enc
		inner(&body)
		return wire.Forward{Origin: "b", Hops: hops, Kind: kind, Body: body.Bytes()}.Encode
	}
	for _, c := range []struct {
		what   string
		kind   wire.Kind
		encode func(*wire.Enc)
		kills  bool
	}{
		{"a tenant envelope around a health request", wire.KindTenant, tenant(wire.KindHealth, health), false},
		{"a forward of one hop around a health request", wire.KindForward, forward(1, wire.KindHealth, health), false},
		{"a tenant envelope whose tenant does not decode", wire.KindTenant, func(e *wire.Enc) { e.Byte(0xff) }, false},
		{"a forward whose body runs past the frame", wire.KindForward, func(e *wire.Enc) {
			e.String("b")
			e.Int(1)
			e.Byte(byte(wire.KindHealth))
			e.Uvarint(5)
		}, false},
		{"a tenant envelope around a tenant envelope", wire.KindTenant, tenant(wire.KindTenant, tenant(wire.KindHealth, health)), true},
		{"a tenant envelope around a forward", wire.KindTenant, tenant(wire.KindForward, forward(1, wire.KindHealth, health)), true},
		{"a forward around a tenant envelope", wire.KindForward, forward(1, wire.KindTenant, tenant(wire.KindHealth, health)), true},
		{"a forward of two hops", wire.KindForward, forward(2, wire.KindHealth, health), true},
	} {
		cc, err := dialWire(h.binAddr)
		if err != nil {
			t.Fatal(err)
		}
		status, _, err := cc.Call(ctx, c.kind, c.encode)
		_, _, next := cc.Call(ctx, wire.KindHealth, health)
		cc.Close()
		refused := strings.HasSuffix(c.what, "decode") || strings.HasSuffix(c.what, "frame")
		switch {
		case c.kills && (!errors.Is(err, wire.ErrConnClosed) || !errors.Is(next, wire.ErrConnClosed)):
			t.Errorf("%s: %v, then %v; want the connection killed", c.what, err, next)
		case !c.kills && refused && (api.From(err).Code != api.CodeBadRequest || status != 400 || next != nil):
			t.Errorf("%s: status %d, %v, then %v; want a bad request on a live connection", c.what, status, err, next)
		case !c.kills && !refused && (err != nil || status != 200 || next != nil):
			t.Errorf("%s: status %d, %v, then %v; want it served", c.what, status, err, next)
		}
	}
}
