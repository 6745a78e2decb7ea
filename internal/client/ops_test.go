package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"entangled/internal/api"
	"entangled/internal/cluster"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/server"
	"entangled/internal/wire"
	"entangled/internal/workload"
)

// routes are the ways a call reaches the server under test: the two
// transports pointed straight at it, and "forward" — a binary client on
// a second node whose ring gives the session to the first, so the call
// crosses one forward hop.
var routes = []string{"http", "binary", "forward"}

// everyTransport boots one single-node cluster server speaking both
// protocols and returns one transport per route. The server keeps its
// one-node view, so the two direct routes see a one-node cluster; the
// edge node behind "forward" believes in {n0, n1}, and owned says which
// session names its ring hands to n1.
func everyTransport(t *testing.T) (ts map[string]transport, owned func(session string) bool, edge *cluster.Router) {
	t.Helper()
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	ln, edgeLn := listen(), listen()
	n1 := cluster.Node{Name: "n1", Addr: ln.Addr().String()}
	boot := func(self string, nodes []cluster.Node, ln net.Listener) (*server.Server, *cluster.Router) {
		r, err := cluster.New(cluster.Config{Self: self, Nodes: nodes}, cluster.Options{
			Placement: workload.Placement(), Dial: func(addr string) cluster.PeerConn { return DialPeer(addr) }})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(engine.New(workload.NewStore(1, 32, 0), engine.Options{}), server.Options{Cluster: r})
		if err != nil {
			t.Fatal(err)
		}
		go srv.ServeWire(ln)
		t.Cleanup(func() { srv.Close(); r.Close() })
		return srv, r
	}
	srv, _ := boot("n1", []cluster.Node{n1}, ln)
	_, edge = boot("n0", []cluster.Node{{Name: "n0", Addr: edgeLn.Addr().String()}, n1}, edgeLn)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	ts = map[string]transport{}
	for name, base := range map[string]string{"http": hs.URL, "binary": "tcp://" + n1.Addr, "forward": "tcp://" + edgeLn.Addr().String()} {
		c, err := New(base, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts[name] = c.t
		t.Cleanup(func() { c.Close() })
	}
	return ts, func(session string) bool { return edge.Owner(session) == "n1" }, edge
}

// conformance runs operations over every route and records which rows
// of wire's table it was given a case for.
type conformance struct {
	ts  map[string]transport
	ran map[string]bool
}

// uncovered lists the rows of wire's table no case ran.
func (c *conformance) uncovered() (names []string) {
	for _, r := range wire.Ops {
		if !c.ran[r.Name] {
			names = append(names, r.Name)
		}
	}
	return names
}

// roundTrip runs one operation over every route and demands the same
// reply from each (after scrub removes what legitimately differs:
// session names, wall-clock fields). A single-protocol operation must
// be refused, without a round trip, by the transports that cannot carry
// it; the forward route carries what a node forwards — the calls that
// route by a key, and batches.
func roundTrip[Q wire.Req, R any](t *testing.T, c *conformance, o *wire.Op[Q, R], q func(route string) Q, scrub func(route string, r *R)) {
	t.Helper()
	c.ran[o.Name] = true
	var first *R
	for _, route := range routes {
		if route == "forward" && (o.Kind == 0 || o.Key == nil && o.Name != wire.Coordinate.Name) {
			continue
		}
		rep, err := invoke(context.Background(), c.ts[route], o, q(route))
		if route == "forward" && o.Name == wire.Subscribe.Name {
			// Push flows from the owner's session loop: an edge refuses,
			// naming the owner, where every other keyed call forwards.
			var e *Error
			if !errors.As(err, &e) || e.Code != api.CodeRouteMoved || e.Owner != "n1" {
				t.Errorf("subscribe at a node that does not own the session: %v, want route_moved naming n1", err)
			}
			continue
		}
		if carried := (route == "http" && o.Method != "") || (route != "http" && o.Kind != 0); !carried {
			if err == nil || !strings.HasPrefix(err.Error(), "client: ") {
				t.Errorf("%s over %s: error %v, want a client-side refusal", o.Name, route, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s over %s: %v", o.Name, route, err)
			continue
		}
		if scrub != nil {
			scrub(route, &rep)
		}
		if first == nil {
			first = &rep
		} else if !reflect.DeepEqual(*first, rep) {
			t.Errorf("%s over %s differs from http:\n%+v\n%+v", o.Name, route, rep, *first)
		}
	}
}

// TestEveryOpRoundTripsOverEveryTransport drives every row of wire's
// operation table through the HTTP and binary transports and across
// one forward hop against one real server: the generic call
// paths must carry every operation, all routes must decode the same
// DTOs, and a row without a case fails the test.
func TestEveryOpRoundTripsOverEveryTransport(t *testing.T) {
	ts, owned, edge := everyTransport(t)
	c := &conformance{ts: ts, ran: map[string]bool{}}
	none0 := func(string) wire.None { return wire.None{} }
	// One session per route, each on a name the edge's ring gives n1.
	names := map[string]string{}
	for i := 0; len(names) < len(routes); i++ {
		if name := fmt.Sprintf("rt%d", i); owned(name) {
			names[routes[len(names)]] = name
		}
	}
	sess := func(route string) string { return names[route] }

	roundTrip(t, c, wire.CreateSession, func(p string) wire.CreateSessionReq { return wire.CreateSessionReq{ID: sess(p), ParkUnsafe: true} },
		func(p string, r *api.CreateSessionResponse) { r.ID = strings.TrimPrefix(r.ID, sess(p)) })
	roundTrip(t, c, wire.Join, func(p string) wire.JoinReq {
		return wire.JoinReq{Session: sess(p), Query: workload.ChainQuery(0, 0, 32)}
	},
		func(_ string, r *api.Update) { r.ElapsedNS = 0 })
	roundTrip(t, c, wire.Join, func(p string) wire.JoinReq {
		return wire.JoinReq{Session: sess(p), Query: workload.ChainQuery(0, 1, 32)}
	},
		func(_ string, r *api.Update) { r.ElapsedNS = 0 })
	roundTrip(t, c, wire.Status, func(p string) wire.StatusReq { return wire.StatusReq{Session: sess(p), Trace: true} },
		func(_ string, r *api.SessionStatus) {
			if r.Live != 2 || r.Trace == nil {
				t.Errorf("status %+v: want 2 live queries and a trace", *r)
			}
			r.ID = ""
		})
	roundTrip(t, c, wire.Leave, func(p string) wire.LeaveReq {
		return wire.LeaveReq{Session: sess(p), QueryID: workload.ChainQuery(0, 1, 32).ID}
	}, func(_ string, r *api.Update) { r.ElapsedNS = 0 })
	roundTrip(t, c, wire.Subscribe, func(p string) wire.SessionReq { return wire.SessionReq{Session: sess(p)} }, nil)
	// Both requests pin constants the edge's ring gives n1, so over the
	// forward route the batch crosses the hop as one slice.
	var at []int
	for i := 0; len(at) < 2; i++ {
		if node, ok := edge.OwnerOfRequest(workload.ListQueriesAt(3, i)); ok && node == "n1" {
			at = append(at, i)
		}
	}
	roundTrip(t, c, wire.Coordinate, func(string) wire.CoordinateReq {
		return wire.CoordinateReq{Requests: []api.Request{{ID: "a", Queries: workload.ListQueriesAt(4, at[0])}, {ID: "b", Queries: workload.ListQueriesAt(3, at[1])}}}
	}, func(_ string, r *api.CoordinateResponse) {
		if len(r.Responses) != 2 || r.Responses[0].Result == nil || r.Responses[0].Result.DBQueries == 0 {
			t.Errorf("coordinate reply %+v", *r)
		}
	})
	roundTrip(t, c, wire.Health, none0, func(_ string, r *api.Health) { r.UptimeS = 0 })
	roundTrip(t, c, wire.Cluster, none0, func(_ string, r *api.ClusterStatus) {
		if !r.Enabled || r.Self != "n1" {
			t.Errorf("cluster view %+v", *r)
		}
	})
	roundTrip(t, c, wire.Recovery, none0, nil)
	roundTrip(t, c, wire.Tenants, none0, nil)
	roundTrip(t, c, wire.Metrics, none0, func(_ string, r *api.Metrics) {
		if r.Sessions.Open != len(routes) {
			t.Errorf("metrics count %d open sessions, want one per route", r.Sessions.Open)
		}
	})
	roundTrip(t, c, wire.DeleteSession, func(p string) wire.SessionReq { return wire.SessionReq{Session: sess(p)} }, nil)

	// Every row of the table had a case — and the check would notice one
	// that had not.
	if missing := c.uncovered(); len(missing) > 0 {
		t.Errorf("rows of wire.Ops with no conformance case: %v", missing)
	}
	delete(c.ran, wire.Leave.Name)
	if missing := c.uncovered(); !reflect.DeepEqual(missing, []string{wire.Leave.Name}) {
		t.Errorf("the coverage check misses a row without a case: reports %v", missing)
	}
	// The forward route forwarded: the six keyed calls above (subscribe
	// is refused, not forwarded) and the batch each crossed the hop once.
	if m := edge.Metrics(); m.ForwardsSent != 7 || m.ForwardFailures != 0 {
		t.Errorf("edge node sent %d forwards (%d failed), want 7 and 0", m.ForwardsSent, m.ForwardFailures)
	}

	// Service errors come back as the same typed *Error everywhere.
	for route, tr := range ts {
		_, err := invoke(context.Background(), tr, wire.Status, wire.StatusReq{Session: sess(route)})
		var e *Error
		if !errors.As(err, &e) || e.Code != api.CodeSessionNotFound || e.Status != 404 {
			t.Errorf("status of a deleted session over %s: %v", route, err)
		}
	}
}

// TestSessionNamesOverEveryTransport pins what a session may be called.
// A name that only needs escaping reaches its own session on every
// transport. The two dot segments, which http.ServeMux cleans out of a
// path before matching, cannot be created anywhere — with "." and
// "join" both open, an HTTP join of "." used to be redirected into a
// status read of "join" — and the HTTP transport follows no redirect,
// so a call on a name no path can carry (the empty one included) fails
// on every transport and touches no session.
func TestSessionNamesOverEveryTransport(t *testing.T) {
	ts, _, _ := everyTransport(t)
	ctx := context.Background()
	direct := routes[:2] // the transports pointed straight at the server
	live := func(name string) int {
		t.Helper()
		st, err := invoke(ctx, ts["binary"], wire.Status, wire.StatusReq{Session: name})
		if err != nil || st.ID != name {
			t.Fatalf("status of %q: %+v, %v", name, st, err)
		}
		return st.Live
	}
	q := workload.ChainQuery(0, 0, 32)
	for _, route := range direct {
		c := &Client{t: ts[route]}
		for _, name := range []string{"a/b", "a b", "a?b", "a%2Fb", "é", "a#b", "x/join"} {
			name = route + name
			sess, err := c.CreateSession(ctx, name, true)
			if err != nil || sess.ID != name {
				t.Fatalf("create %q over %s: %+v, %v", name, route, sess, err)
			}
			if _, err := sess.Join(ctx, q); err != nil || live(name) != 1 {
				t.Fatalf("join of %q over %s: %v, %d live", name, route, err, live(name))
			}
			if st, err := sess.Status(ctx, false); err != nil || st.ID != name || st.Live != 1 {
				t.Fatalf("status of %q over %s: %+v, %v", name, route, st, err)
			}
			if _, err := sess.Leave(ctx, q.ID); err != nil || live(name) != 0 {
				t.Fatalf("leave of %q over %s: %v, %d live", name, route, err, live(name))
			}
			if err := sess.Close(ctx); err != nil {
				t.Fatalf("delete of %q over %s: %v", name, route, err)
			}
		}
	}

	// Sessions a cleaned path would land on.
	for _, name := range []string{"join", "leave"} {
		if _, err := (&Client{t: ts["http"]}).CreateSession(ctx, name, true); err != nil {
			t.Fatal(err)
		}
	}
	var refusal string
	for _, route := range direct {
		c := &Client{t: ts[route]}
		for _, name := range []string{".", ".."} {
			_, err := c.CreateSession(ctx, name, true)
			var e *Error
			if !errors.As(err, &e) || e.Code != api.CodeBadRequest || e.Status != 400 {
				t.Errorf("create %q over %s: %v, want a 400 bad_request", name, route, err)
				continue
			}
			if msg := strings.ReplaceAll(e.Message, `".."`, `"."`); refusal == "" {
				refusal = msg
			} else if msg != refusal {
				t.Errorf("create %q over %s refused with %q, elsewhere %q", name, route, e.Message, refusal)
			}
		}
		for _, name := range []string{"", ".", ".."} {
			sess := c.Session(name)
			_, joinErr := sess.Join(ctx, q)
			_, leaveErr := sess.Leave(ctx, q.ID)
			_, statusErr := sess.Status(ctx, false)
			// Over HTTP the path is cleaned into a redirect, or matches no
			// route: a bare status, no envelope. The binary protocol looks
			// the name up and finds nothing.
			want := api.CodeSessionNotFound
			if route == "http" {
				want = api.CodeInternal
			}
			for i, err := range []error{joinErr, leaveErr, statusErr, sess.Close(ctx)} {
				var e *Error
				if !errors.As(err, &e) || e.Code != want || e.Status < 300 {
					t.Errorf("call %d on session %q over %s: %v, want a typed %s", i, name, route, err, want)
				}
			}
		}
	}
	if h, err := invoke(ctx, ts["binary"], wire.Health, wire.None{}); err != nil || h.Sessions != 2 || live("join") != 0 || live("leave") != 0 {
		t.Errorf("after the refused calls: %+v (%v), %d live in join, %d in leave; want the two empty sessions", h, err, live("join"), live("leave"))
	}
}

// TestAtomWithoutRelationOverEveryTransport: eq's JSON is field tags,
// which cannot say that an atom names a relation, so each edge says it:
// the binary decoder as it reads the atom, the HTTP edge once the body
// has decoded. A client that sends such a query gets the same typed 400
// bad_request over every route — across the forward hop from the node
// it talked to, which refuses before it forwards — and nothing joins.
func TestAtomWithoutRelationOverEveryTransport(t *testing.T) {
	ts, owned, edge := everyTransport(t)
	ctx := context.Background()
	name := "norel"
	for i := 0; !owned(name); i++ {
		name = fmt.Sprintf("norel%d", i)
	}
	if _, err := invoke(ctx, ts["binary"], wire.CreateSession, wire.CreateSessionReq{ID: name}); err != nil {
		t.Fatal(err)
	}
	q := workload.ChainQuery(0, 0, 32)
	q.Body[0].Rel = ""
	for _, route := range routes {
		_, joinErr := invoke(ctx, ts[route], wire.Join, wire.JoinReq{Session: name, Query: q})
		_, batchErr := invoke(ctx, ts[route], wire.Coordinate, wire.CoordinateReq{Requests: []api.Request{{ID: "r", Queries: []eq.Query{q}}}})
		for what, err := range map[string]error{"join": joinErr, "coordinate": batchErr} {
			var e *Error
			if !errors.As(err, &e) || e.Status != 400 || e.Code != api.CodeBadRequest || !strings.Contains(e.Message, "atom without relation name") {
				t.Errorf("%s over %s: %v, want a 400 bad_request naming the atom", what, route, err)
			}
		}
	}
	if st, err := invoke(ctx, ts["binary"], wire.Status, wire.StatusReq{Session: name}); err != nil || st.Live+st.Parked != 0 {
		t.Errorf("session after the refused joins: %+v (%v)", st, err)
	}
	if m := edge.Metrics(); m.ForwardsSent != 0 {
		t.Errorf("the edge node forwarded %d refused requests", m.ForwardsSent)
	}
}

// TestTenantCallErrorsNameTheOperation: with Options.Tenant set every
// frame travels inside a tenant envelope, but a failed call is still
// reported as the operation the caller made — "join call", "decoding
// status reply" — never as the envelope.
func TestTenantCallErrorsNameTheOperation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A peer that hangs up on the first request, then answers the second
	// (on the redialed connection) with a 200 whose body is garbage.
	go func() {
		for n := 0; ; n++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(c)
			var magic [len(wire.Magic)]byte
			if _, err := io.ReadFull(br, magic[:]); err == nil {
				if payload, err := wire.ReadFrame(br, nil); err == nil && n > 0 {
					f, _ := wire.EncodeFrame(nil, wire.Header{Kind: wire.KindReply, ID: wire.GetHeader(wire.NewDec(payload)).ID}, func(e *wire.Enc) {
						wire.PutReplyOK(e, 200)
						e.Byte(0xff) // a reply body no decoder accepts
					})
					c.Write(f)
					io.Copy(io.Discard, br)
				}
			}
			c.Close()
		}
	}()
	c, err := New("tcp://"+ln.Addr().String(), Options{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Session("s").Join(context.Background(), workload.ChainQuery(0, 0, 8))
	if err == nil || !strings.Contains(err.Error(), "join call") || strings.Contains(err.Error(), "tenant") {
		t.Fatalf("dropped join under a tenant: %v; want an error naming the join call", err)
	}
	if !IsRetryable(err) {
		t.Fatalf("dropped join must stay retryable: %v", err)
	}
	_, err = c.Session("s").Status(context.Background(), false)
	if err == nil || !strings.Contains(err.Error(), "decoding status reply") {
		t.Fatalf("garbage status reply under a tenant: %v; want an error naming the status reply", err)
	}
}

// TestClientReadsAndPush drives the Client methods the conformance test
// reaches only through its transports: the four reads over HTTP, health
// over binary, and a binary subscription that receives the push a
// departure sends when it admits a parked arrival.
func TestClientReadsAndPush(t *testing.T) {
	ctx := context.Background()
	in := db.NewInstance()
	in.CreateRelation("Flights", "fid", "dest").Insert("f1", "Paris")
	srv, err := server.New(engine.New(in, engine.Options{}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln)
	t.Cleanup(func() { hs.Close(); srv.Close() })

	hc, err := New(hs.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	if h, err := hc.Health(ctx); err != nil || h.Status != "ok" {
		t.Errorf("HTTP health %+v, err %v", h, err)
	}
	if r, err := hc.Recovery(ctx); err != nil || r.Enabled {
		t.Errorf("recovery of an in-memory server %+v, err %v", r, err)
	}
	if m, err := hc.Metrics(ctx); err != nil || m.Coordinate.Requests != 0 {
		t.Errorf("metrics of an idle server %+v, err %v", m, err)
	}
	if ts, err := hc.Tenants(ctx); err != nil || ts.Enabled {
		t.Errorf("tenants without admission %+v, err %v", ts, err)
	}

	bc, err := New("tcp://"+ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if h, err := bc.Health(ctx); err != nil || h.Status != "ok" {
		t.Errorf("binary health %+v, err %v", h, err)
	}
	// Two heads on user A park a poster that fans out to both; the
	// departure of one admits it, and the server pushes the admission.
	mk := func(id, u string, posts ...string) eq.Query {
		q := eq.Query{ID: id, Head: []eq.Atom{eq.NewAtom("Go", eq.C(eq.Value(u)), eq.V("d"))},
			Body: []eq.Atom{eq.NewAtom("Flights", eq.V("f"), eq.V("d"))}}
		for _, p := range posts {
			q.Post = append(q.Post, eq.NewAtom("Go", eq.C(eq.Value(p)), eq.V("e")))
		}
		return q
	}
	sess, err := bc.CreateSession(ctx, "trip", true)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Notification, 1)
	stop, err := sess.Subscribe(ctx, func(n Notification) { got <- n })
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, q := range []eq.Query{mk("qa", "A"), mk("qa2", "A")} {
		if _, err := sess.Join(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if up, err := sess.Join(ctx, mk("qp", "B", "A")); err != nil || !up.Parked {
		t.Fatalf("poster join: %+v, err %v, want parked", up, err)
	}
	if _, err := sess.Leave(ctx, "qa2"); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n.Session != "trip" || n.QueryID != "qp" {
			t.Errorf("push %+v, want the admission of qp in trip", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the push never arrived")
	}
}
