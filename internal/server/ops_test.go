package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"entangled/internal/admission"
	"entangled/internal/api"
	"entangled/internal/client"
	"entangled/internal/cluster"
	"entangled/internal/coord"
	"entangled/internal/eq"
	"entangled/internal/server"
	"entangled/internal/wire"
	"entangled/internal/workload"
)

// opPairs drives one successful call of each dual-protocol operation
// through a client and returns the decoded outcome with its
// protocol-specific noise (session name, wall-clock fields) scrubbed.
// name is a session this protocol's client already created and joined
// one query into. tableEquivalence runs each entry over HTTP and binary
// and demands deep-equal outcomes; an operation in the server's table
// with both adapters and no entry here fails the harness.
var opPairs = map[string]func(t *testing.T, c *client.Client, raw rawCaller, name string) any{
	"coordinate": func(t *testing.T, c *client.Client, _ rawCaller, _ string) any {
		resps, err := c.CoordinateBatch(context.Background(), []client.Request{{ID: "r", Queries: workload.ListQueriesAt(4, 1)}})
		if err != nil {
			t.Fatal(err)
		}
		return resps
	},
	"create_session": func(t *testing.T, c *client.Client, _ rawCaller, name string) any {
		sess, err := c.CreateSession(context.Background(), name+"-2", true)
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimPrefix(sess.ID, name)
	},
	"join": func(t *testing.T, c *client.Client, _ rawCaller, name string) any {
		up, err := c.Session(name).Join(context.Background(), workload.ChainQuery(1, 0, 32))
		if err != nil {
			t.Fatal(err)
		}
		up.ElapsedNS = 0
		return up
	},
	"leave": func(t *testing.T, c *client.Client, _ rawCaller, name string) any {
		up, err := c.Session(name).Leave(context.Background(), workload.ChainQuery(0, 0, 32).ID)
		if err != nil {
			t.Fatal(err)
		}
		up.ElapsedNS = 0
		return up
	},
	"status": func(t *testing.T, c *client.Client, _ rawCaller, name string) any {
		st, err := c.Session(name).Status(context.Background(), true)
		if err != nil {
			t.Fatal(err)
		}
		st.ID = ""
		return st
	},
	"delete_session": func(t *testing.T, c *client.Client, _ rawCaller, name string) any {
		if err := c.Session(name).Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		_, err := c.Session(name).Status(context.Background(), false)
		var ce *client.Error
		if !errors.As(err, &ce) {
			t.Fatalf("status after delete: %v", err)
		}
		return ce.Code
	},
	"health": func(t *testing.T, c *client.Client, _ rawCaller, _ string) any {
		h, err := c.Health(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		h.UptimeS = 0
		return h
	},
	// The client exposes no cluster call (the view is for operators), so
	// this pair speaks each codec directly.
	"cluster": func(t *testing.T, _ *client.Client, raw rawCaller, _ string) any {
		return raw(t, "/v1/cluster", wire.KindCluster, func(d *wire.Dec) any { return wire.GetClusterStatus(d) }, &api.ClusterStatus{})
	},
}

// singleProtocol is the explicit list of operations served by one
// protocol only; the table must mark them the same way.
var singleProtocol = map[string]string{
	"subscribe": "binary",
	"recovery":  "http",
	"metrics":   "http",
	"tenants":   "http",
}

// rawCaller fetches one bodiless read operation without the client: a
// GET decoded into jsonOut over HTTP, or a bare frame decoded by dec
// over the binary protocol.
type rawCaller func(t *testing.T, path string, kind wire.Kind, dec func(*wire.Dec) any, jsonOut any) any

// tableEquivalence is the table-driven half of TestWireCodecsEquivalent.
func tableEquivalence(t *testing.T) {
	h := newAdmissionLoopback(t, nil, server.Options{})
	httpC, binC, httpURL, binAddr := h.client("http", ""), h.client("binary", ""), h.httpURL, h.binAddr
	ctx := context.Background()
	rawHTTP := func(t *testing.T, path string, _ wire.Kind, _ func(*wire.Dec) any, out any) any {
		resp, err := http.Get(httpURL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return reflect.ValueOf(out).Elem().Interface()
	}
	rawBin := func(t *testing.T, _ string, kind wire.Kind, dec func(*wire.Dec) any, _ any) any {
		cc, err := dialWire(binAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer cc.Close()
		_, rep, err := cc.Call(ctx, kind, nil)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		defer rep.Release()
		d := wire.NewDec(rep.Body)
		v := dec(d)
		if err := d.Finish(); err != nil {
			t.Fatalf("%v reply: %v", kind, err)
		}
		return v
	}
	for i, c := range []*client.Client{httpC, binC} {
		sess, err := c.CreateSession(ctx, fmt.Sprintf("tbl%d", i), true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Join(ctx, workload.ChainQuery(0, 0, 32)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, o := range server.Operations() {
		if seen[o.Name] {
			t.Errorf("operation %s appears twice in the table", o.Name)
		}
		seen[o.Name] = true
		if only, single := singleProtocol[o.Name]; single || o.Kind == 0 || o.Method == "" {
			marked := map[bool]string{true: "http", false: "binary"}[o.Kind == 0]
			if o.Kind != 0 && o.Method != "" {
				marked = "both"
			}
			if !single || only != marked {
				t.Errorf("operation %s: table serves %s, the explicit single-protocol list says %q", o.Name, marked, only)
			}
			continue
		}
		pair := opPairs[o.Name]
		if pair == nil {
			t.Errorf("operation %s has both adapters in the table but no equivalence pair", o.Name)
			continue
		}
		hv, bv := pair(t, httpC, rawHTTP, "tbl0"), pair(t, binC, rawBin, "tbl1")
		if !reflect.DeepEqual(hv, bv) {
			t.Errorf("operation %s: outcomes differ:\nHTTP   %+v\nbinary %+v", o.Name, hv, bv)
		}
	}
	for name := range opPairs {
		if !seen[name] {
			t.Errorf("equivalence pair %s names no operation in the table", name)
		}
	}
	for name := range singleProtocol {
		if !seen[name] {
			t.Errorf("single-protocol entry %s names no operation in the table", name)
		}
	}
	// The HTTP-only surfaces refuse cleanly over the binary client.
	if _, err := binC.Metrics(ctx); err == nil || !strings.Contains(err.Error(), "HTTP only") {
		t.Errorf("metrics over binary: %v", err)
	}
}

// answeringPeer is a cluster.PeerConn whose peer answers every forward
// with one failed reply: Call returns what wire.ClientConn.Call decodes
// from that reply's bytes.
type answeringPeer struct{ answer *api.Error }

func (p answeringPeer) Call(context.Context, wire.Kind, func(*wire.Enc)) (int, wire.Reply, error) {
	var e wire.Enc
	wire.PutReplyErr(&e, p.answer)
	status, err := wire.GetReply(wire.NewDec(e.Bytes()))
	return status, wire.Reply{}, err
}
func (answeringPeer) Connected() bool { return true }
func (answeringPeer) Close() error    { return nil }

// forwardedFailureEquivalence is the forward-hop half of
// TestWireCodecsEquivalent: what a forward's owner refused reaches the
// client as the owner answered it — status, code, message, owner and
// retry hint, HTTP == binary == the owner's reply — at call level (a
// forwarded join) and inline (a forwarded batch slice), with the
// sentinel attached.
func forwardedFailureEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, answer := range []*api.Error{
		{Status: http.StatusMisdirectedRequest, Code: api.CodeRouteMoved, Message: "cluster: route moved: session s is owned by c", Owner: "c"},
		{Status: http.StatusTooManyRequests, Code: api.CodeThrottled, Message: `admission: tenant "hot" throttled (rate)`, RetryAfterMS: 250},
	} {
		r, err := cluster.New(cluster.Config{Self: "a", Nodes: []cluster.Node{{Name: "a", Addr: "a:1"}, {Name: "b", Addr: "b:1"}}},
			cluster.Options{Placement: map[string]int{"T": 1}, Dial: func(string) cluster.PeerConn { return answeringPeer{answer} }})
		if err != nil {
			t.Fatal(err)
		}
		session, idx := "", -1
		for i := 0; session == "" || idx < 0; i++ {
			if name := fmt.Sprintf("s%d", i); session == "" && r.Owner(name) == "b" {
				session = name
			}
			if idx < 0 && r.Ring().OwnerOfValue(eq.Value(fmt.Sprintf("c%d", i))) == "b" {
				idx = i
			}
		}
		h := newAdmissionLoopback(t, nil, server.Options{Cluster: r})
		var joins, inline [2]error
		for i, proto := range []string{"http", "binary"} {
			c := h.client(proto, "")
			_, joins[i] = c.Session(session).Join(ctx, workload.ChainQuery(0, 0, 8))
			resps, err := c.CoordinateBatch(ctx, []client.Request{{ID: "r", Queries: workload.ListQueriesAt(2, idx)}})
			if err != nil {
				t.Fatalf("%s %s: a refused slice failed the batch: %v", answer.Code, proto, err)
			}
			inline[i] = resps[0].Err
		}
		sameClientError(t, answer.Code+" forwarded join", joins[0], joins[1])
		sameClientError(t, answer.Code+" forwarded batch slice", inline[0], inline[1])
		want := *answer
		for _, got := range []error{joins[0], inline[0]} {
			var ce *client.Error
			if !errors.As(got, &ce) || *ce != want || !errors.Is(got, api.Sentinel(answer.Code)) {
				t.Fatalf("%s crossed the forward hop as %+v, want %+v wrapping its sentinel", answer.Code, got, want)
			}
			want.Status = 0 // inline: the batch call itself succeeded
		}
	}
}

// TestEveryKindIsInTheTable: a request kind the protocol defines is
// either a row of wire's operation table or one of the two envelopes,
// and the serving table serves exactly those rows, in order — nothing
// dispatches from anywhere else. DESIGN.md prints the table once ("One
// operation table"); the print must say what the code says.
func TestEveryKindIsInTheTable(t *testing.T) {
	served := server.Operations()
	if len(served) != len(wire.Ops) {
		t.Fatalf("the serving table has %d entries, wire.Ops %d rows", len(served), len(wire.Ops))
	}
	inTable := map[wire.Kind]bool{}
	var rows []string
	for i, o := range served {
		if o.Route != wire.Ops[i] {
			t.Errorf("serving-table entry %d serves %s, wire.Ops lists %s there", i, o.Name, wire.Ops[i].Name)
		}
		kind, route, key, reply, by := "—", "—", "—", "—", "any node"
		if o.Kind != 0 {
			inTable[o.Kind] = true
			kind = fmt.Sprint(uint8(o.Kind))
		}
		if o.Method != "" {
			route = "`" + o.Method + " " + o.Path + "`"
		}
		if o.Reply != "wire.None" {
			reply = "`" + o.Reply + "`"
		}
		if o.Keyed {
			key, by = "session name", "the owner; another node forwards one hop"
		}
		if o.Local {
			by = "the owner only; another node answers `route_moved`"
		}
		rows = append(rows, fmt.Sprintf("| `%s` | %s | %s | %s | %s | %s | %s |", o.Name, kind, route, key, o.Class, reply, by))
	}
	for k := wire.Kind(1); k < wire.KindReply; k++ {
		defined := !strings.HasPrefix(k.String(), "kind(")
		envelope := k == wire.KindTenant || k == wire.KindForward
		switch {
		case defined && !envelope && !inTable[k]:
			t.Errorf("request kind %v has no operation-table entry", k)
		case envelope && inTable[k]:
			t.Errorf("envelope kind %v must not be a table entry", k)
		case !defined && inTable[k]:
			t.Errorf("table entry uses undefined kind %d", k)
		}
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n### One operation table\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"### One operation table\" section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	var printed []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "| `") {
			printed = append(printed, line)
		}
	}
	if !reflect.DeepEqual(printed, rows) {
		t.Errorf("DESIGN.md prints\n%s\nthe tables say\n%s", strings.Join(printed, "\n"), strings.Join(rows, "\n"))
	}
}

// TestOversizedPayloadRefusedBothProtocols: both protocols stop reading
// at wire.MaxFrame. HTTP answers the typed bad_request with 413; the
// binary protocol drops the connection at the implausible length.
// Neither reads the payload into memory, and the server keeps serving.
func TestOversizedPayloadRefusedBothProtocols(t *testing.T) {
	h := newAdmissionLoopback(t, nil, server.Options{})
	ctx := context.Background()

	// One JSON string that only ends past the cap: MaxFrame+1 bytes in all.
	prefix := `{"query":{"id":"`
	body := append([]byte(prefix), bytes.Repeat([]byte("a"), wire.MaxFrame+1-len(prefix))...)
	for _, path := range []string{"/v1/coordinate", "/v1/sessions", "/v1/sessions/s/join", "/v1/sessions/s/leave"} {
		resp, err := http.Post(h.httpURL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var env api.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || env.Error == nil || env.Error.Code != api.CodeBadRequest {
			t.Fatalf("POST %s of %d bytes: status %d, envelope %+v (%v); want 413 bad_request", path, len(body), resp.StatusCode, env.Error, err)
		}
	}

	// The same size announced in a frame header: the server hangs up
	// without waiting for (or allocating) the payload.
	nc, err := net.Dial("tcp", h.binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr, wire.MaxFrame+1)
	if _, err := nc.Write(append([]byte(wire.Magic), hdr...)); err != nil {
		t.Fatal(err)
	}
	if n, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatalf("server answered %d bytes to an oversized frame header instead of closing", n)
	}

	for _, proto := range []string{"http", "binary"} {
		if _, err := h.client(proto, "").Coordinate(ctx, workload.ListQueriesAt(2, 0)); err != nil {
			t.Fatalf("%s not serviceable after the oversized payload: %v", proto, err)
		}
	}
}

// TestOversizedJoinSameErrorBothProtocols: a join too large for one
// frame is refused with the same 413 bad_request over both protocols,
// and neither error says a retry could succeed. The binary client never
// writes it, so its connection serves the next join.
func TestOversizedJoinSameErrorBothProtocols(t *testing.T) {
	h := newAdmissionLoopback(t, nil, server.Options{})
	ctx := context.Background()
	big := workload.ChainQuery(0, 0, 32)
	big.ID = strings.Repeat("q", wire.MaxFrame)
	for _, proto := range []string{"http", "binary"} {
		sess, err := h.client(proto, "").CreateSession(ctx, "", false)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sess.Join(ctx, big)
		var e *client.Error
		if !errors.As(err, &e) || e.Status != http.StatusRequestEntityTooLarge || e.Code != api.CodeBadRequest || client.IsRetryable(err) {
			t.Fatalf("%s: oversized join: %v; want a 413 bad_request that is not retryable", proto, err)
		}
		if _, err := sess.Join(ctx, workload.ChainQuery(0, 0, 32)); err != nil {
			t.Fatalf("%s: the next join: %v", proto, err)
		}
	}
}

// TestMalformedBodiesRefusedBothProtocols: a request body is one value
// with nothing after it, and every atom in it names a relation. The
// binary protocol refuses both as it decodes (Dec.Finish, wire.GetQuery);
// HTTP used to serve the first JSON value of a body and bill for it, and
// checks the relation itself now that eq's JSON is field tags. Every
// body-carrying route answers the typed 400 bad_request on both
// protocols, before admission decides: the tenant's counters do not
// move, no session appears and none changes.
func TestMalformedBodiesRefusedBothProtocols(t *testing.T) {
	h := newAdmissionLoopback(t, &admission.Config{}, server.Options{})
	ctx := context.Background()
	sess, err := h.client("http", "ten").CreateSession(ctx, "s", true)
	if err != nil {
		t.Fatal(err)
	}
	live := workload.ChainQuery(0, 0, 32)
	if _, err := sess.Join(ctx, live); err != nil {
		t.Fatal(err)
	}
	post := func(path string, body io.Reader) (int, *api.Error) {
		r := httptest.NewRequest("POST", path, body)
		r.Header.Set(api.TenantHeader, "ten")
		w := httptest.NewRecorder()
		h.srv.ServeHTTP(w, r)
		var env api.ErrorEnvelope
		_ = json.Unmarshal(w.Body.Bytes(), &env)
		return w.Code, env.Error
	}
	cc, err := dialWire(h.binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	refused := func(what string, status int, e *api.Error, naming string) {
		t.Helper()
		if status != http.StatusBadRequest || e == nil || e.Code != api.CodeBadRequest || !strings.Contains(e.Message, naming) {
			t.Errorf("%s: status %d, error %+v; want 400 bad_request naming %q", what, status, e, naming)
		}
	}
	// What may follow a JSON value is white space, also when the length
	// is not announced and the body buffer grows as it reads.
	batch := wire.Coordinate.Bind(wire.CoordinateReq{Requests: []api.Request{{ID: "r", Queries: workload.ListQueriesAt(3, 1)}}})
	_, in, _ := batch.HTTP()
	padded, _ := json.Marshal(in)
	padded = append(padded, " \n\t"...)
	for _, body := range []io.Reader{bytes.NewReader(padded), io.MultiReader(bytes.NewReader(padded))} {
		if status, e := post("/v1/coordinate", body); status != http.StatusOK {
			t.Fatalf("a request followed by white space: status %d, %+v", status, e)
		}
	}
	before, err := h.client("http", "").Tenants(ctx)
	if err != nil || len(before.Tenants) != 1 || before.Tenants[0].Admitted == 0 || before.Tenants[0].DBQueriesSpent == 0 {
		t.Fatalf("/v1/tenants before the refusals: %+v (%v); want ten's admitted work", before, err)
	}

	for _, call := range []wire.Call{
		batch,
		wire.CreateSession.Bind(wire.CreateSessionReq{ID: "s2", ParkUnsafe: true}),
		wire.Join.Bind(wire.JoinReq{Session: "s", Query: workload.ChainQuery(0, 1, 32)}),
		wire.Leave.Bind(wire.LeaveReq{Session: "s", QueryID: live.ID}),
	} {
		name := call.Route().Name
		path, in, _ := call.HTTP()
		body, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range []string{"]]]", string(body), "0"} {
			status, e := post(path, strings.NewReader(string(body)+tail))
			refused(fmt.Sprintf("HTTP %s followed by %.12q", name, tail), status, e, "after top-level value")
		}
		status, e := post(path, io.MultiReader(bytes.NewReader(body), strings.NewReader("{}")))
		refused("HTTP "+name+" of unannounced length, followed by {}", status, e, "after top-level value")

		var frame wire.Enc
		call.Encode(&frame)
		status, _, err = cc.Call(ctx, wire.KindTenant, tenantReq("ten", call.Route().Kind, append(frame.Bytes(), 0)))
		refused("binary "+name+" followed by a byte", status, api.From(err), "trailing")
	}

	// The relocated check: an atom without a relation name, in any
	// section, on the two operations that carry queries.
	for i, section := range []string{"post", "head", "body"} {
		q := workload.ChainQuery(0, 1, 32)
		[]*eq.Atom{&q.Post[0], &q.Head[0], &q.Body[0]}[i].Rel = ""
		for _, call := range []wire.Call{
			wire.Coordinate.Bind(wire.CoordinateReq{Requests: []api.Request{{Queries: workload.ListQueriesAt(2, 1)}, {Queries: []eq.Query{live, q}}}}),
			wire.Join.Bind(wire.JoinReq{Session: "s", Query: q}),
		} {
			what := fmt.Sprintf("%s with a %s atom without a relation", call.Route().Name, section)
			path, in, _ := call.HTTP()
			body, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			status, e := post(path, bytes.NewReader(body))
			refused("HTTP "+what, status, e, "atom without relation name")
			var frame wire.Enc
			call.Encode(&frame)
			status, _, err = cc.Call(ctx, wire.KindTenant, tenantReq("ten", call.Route().Kind, frame.Bytes()))
			refused("binary "+what, status, api.From(err), "atom without relation name")
		}
	}

	after, err := h.client("http", "").Tenants(ctx)
	if err != nil || !reflect.DeepEqual(after, before) {
		t.Errorf("/v1/tenants moved across refused requests (%v):\nbefore %+v\nafter  %+v", err, before, after)
	}
	if st, err := sess.Status(ctx, false); err != nil || st.Live != 1 || st.Parked != 0 {
		t.Errorf("session s after the refusals: %+v (%v); want its one live query", st, err)
	}
	if hl, err := h.client("http", "").Health(ctx); err != nil || hl.Sessions != 1 {
		t.Errorf("health after the refusals: %+v (%v); want one session", hl, err)
	}
}

// malformedPeer is a cluster.PeerConn whose peer answers every forward
// with a 200 whose body does not validate: a forwarded batch with
// well-formed responses billing 7 queries each and then two stray
// bytes, anything else with an update that lost its last byte.
type malformedPeer struct{}

func (malformedPeer) Call(_ context.Context, _ wire.Kind, encode func(*wire.Enc)) (int, wire.Reply, error) {
	var env, e wire.Enc
	encode(&env)
	if fwd := wire.DecodeForward(wire.NewDec(env.Bytes())); fwd.Kind == wire.KindCoordinate {
		reqs := wire.DecodeCoordinateReq(wire.NewDec(fwd.Body)).Requests
		resps := make([]api.Response, len(reqs))
		for i, rq := range reqs {
			resps[i] = api.Response{ID: rq.ID, Result: &coord.Result{DBQueries: 7}}
		}
		wire.PutResponses(&e, resps)
		return http.StatusOK, wire.Reply{Body: append(e.Bytes(), 0, 0)}, nil
	}
	up := api.Update{Seq: 1, Admitted: true, TeamSize: 2}
	up.Stats.DBQueries = 7
	wire.PutUpdate(&e, up)
	return http.StatusOK, wire.Reply{Body: e.Bytes()[:len(e.Bytes())-1]}, nil
}
func (malformedPeer) Connected() bool { return true }
func (malformedPeer) Close() error    { return nil }

// TestMalformedForwardedUpdateSettlesZero: the edge charges a tenant
// only for a forwarded reply that validated. A peer answering a join or
// leave with a truncated update is an internal error on both protocols
// — same status, code and message — and a batch slice answered with
// bytes after its responses carries the same error inline; neither
// lands anything on the tenant's budget, with the in-flight slot
// released.
func TestMalformedForwardedUpdateSettlesZero(t *testing.T) {
	r, err := cluster.New(cluster.Config{Self: "a", Nodes: []cluster.Node{{Name: "a", Addr: "a:1"}, {Name: "b", Addr: "b:1"}}},
		cluster.Options{Placement: map[string]int{"T": 1}, Dial: func(string) cluster.PeerConn { return malformedPeer{} }})
	if err != nil {
		t.Fatal(err)
	}
	remote, idx := "", -1
	for i := 0; remote == "" || idx < 0; i++ {
		if name := fmt.Sprintf("s%d", i); remote == "" && r.Owner(name) == "b" {
			remote = name
		}
		if idx < 0 && r.Ring().OwnerOfValue(eq.Value(fmt.Sprintf("c%d", i))) == "b" {
			idx = i
		}
	}
	adm := admission.NewController(admission.Config{})
	h := newAdmissionLoopback(t, nil, server.Options{Cluster: r, Admission: adm})
	ctx := context.Background()
	var errs [2][3]error
	for i, proto := range []string{"http", "binary"} {
		c := h.client(proto, "ten-"+proto)
		_, errs[i][0] = c.Session(remote).Join(ctx, workload.ChainQuery(0, 0, 8))
		_, errs[i][1] = c.Session(remote).Leave(ctx, "q")
		resps, err := c.CoordinateBatch(ctx, []client.Request{{ID: "r", Queries: workload.ListQueriesAt(2, idx)}})
		if err != nil {
			t.Fatalf("%s: a malformed slice failed the batch: %v", proto, err)
		}
		errs[i][2] = resps[0].Err
	}
	for _, sn := range adm.Snapshot() {
		if sn.DBQueriesSpent != 0 || sn.InFlight != 0 {
			t.Errorf("tenant %s settled %d DBQueries with %d in flight after malformed replies; want 0 and 0",
				sn.Tenant, sn.DBQueriesSpent, sn.InFlight)
		}
	}
	for j, what := range []string{"forwarded join", "forwarded leave", "forwarded batch slice"} {
		sameClientError(t, what, errs[0][j], errs[1][j])
		status := http.StatusInternalServerError
		if j == 2 {
			status = 0 // inline: the batch call itself succeeded
		}
		var ce *client.Error
		if !errors.As(errs[0][j], &ce) || ce.Status != status || ce.Code != api.CodeInternal ||
			!strings.Contains(ce.Message, "malformed") {
			t.Fatalf("%s: %v; want an internal error naming the malformed reply", what, errs[0][j])
		}
	}
}

// tenantReq encodes a KindTenant envelope around body, as a binary
// client does.
func tenantReq(tenant string, kind wire.Kind, body []byte) func(*wire.Enc) {
	return func(e *wire.Enc) {
		wire.PutTenantPrefix(e, tenant, kind)
		e.Raw(body)
	}
}

// dialWire opens a binary-protocol connection to addr and starts its
// read loop, with no push observer.
func dialWire(addr string) (*wire.ClientConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return wire.NewClientConn(nc, nil), nil
}
