package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"entangled/internal/api"
	"entangled/internal/coord"
	"entangled/internal/eq"
	"entangled/internal/frame"
)

var update = flag.Bool("update", false, "rewrite golden frame files")

// sampleQuery mirrors the api package's golden fixture, so the two
// protocols' golden files describe the same payloads.
func sampleQuery() eq.Query {
	return eq.Query{
		ID:   "u1",
		Post: []eq.Atom{eq.NewAtom("R", eq.C("U2"), eq.V("y"))},
		Head: []eq.Atom{eq.NewAtom("R", eq.C("U1"), eq.V("x"))},
		Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
	}
}

func sampleResult() *coord.Result {
	return &coord.Result{
		Set:       []int{0, 1},
		Values:    map[int]map[string]eq.Value{0: {"x": "t0"}, 1: {"x": "t0", "y": "t0"}},
		DBQueries: 2,
	}
}

// goldenFrame compares the complete frame (header + payload) for one
// encoded message against testdata/<name>.bin byte for byte; `go test
// ./internal/wire -update` rewrites the files. These frames ARE the
// binary protocol: a diff here is a wire-format change and must be
// deliberate. The stored frame is also re-read through ReadFrame, so
// the golden files double as known-good decoder input (and fuzz
// seeds).
func goldenFrame(t *testing.T, name string, encode func(*Enc)) []byte {
	t.Helper()
	var e Enc
	encode(&e)
	framed := frame.Append(nil, e.Bytes())
	path := filepath.Join("testdata", name+".bin")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, framed, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/wire -update` to create it)", err)
	}
	if !bytes.Equal(framed, want) {
		t.Fatalf("frame %s drifted from golden file:\n--- got ---\n%x\n--- want ---\n%x", name, framed, want)
	}
	payload, err := ReadFrame(bytes.NewReader(want), nil)
	if err != nil {
		t.Fatalf("%s: re-reading golden frame: %v", name, err)
	}
	if !bytes.Equal(payload, e.Bytes()) {
		t.Fatalf("%s: frame payload did not round-trip", name)
	}
	return payload
}

func TestGoldenCoordinateRequestFrame(t *testing.T) {
	req := CoordinateReq{Requests: []api.Request{{ID: "r1", Queries: []eq.Query{sampleQuery()}}}}
	payload := goldenFrame(t, "coordinate_request", func(e *Enc) {
		PutHeader(e, Header{Kind: KindCoordinate, ID: 1})
		req.Encode(e)
	})
	d := NewDec(payload)
	if h := GetHeader(d); h.Kind != KindCoordinate || h.ID != 1 {
		t.Fatalf("header %+v", h)
	}
	back := DecodeCoordinateReq(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Requests, req.Requests) {
		t.Fatalf("decoded %+v != %+v", back, req)
	}
}

func TestGoldenCoordinateReplyFrame(t *testing.T) {
	resps := []api.Response{
		{ID: "r1", Result: sampleResult()},
		{ID: "r2", Error: &api.Error{Code: coord.CodeUnsafe, Message: "coord: query set is not safe: unsafe queries [0]"}},
	}
	payload := goldenFrame(t, "coordinate_reply", func(e *Enc) {
		PutHeader(e, Header{Kind: KindReply, ID: 1})
		PutReplyOK(e, 200)
		PutResponses(e, resps)
	})
	d := NewDec(payload)
	if h := GetHeader(d); h.Kind != KindReply || h.ID != 1 {
		t.Fatalf("header %+v", h)
	}
	status, err := GetReply(d)
	if err != nil || status != 200 {
		t.Fatalf("reply status %d err %v", status, err)
	}
	back := GetResponses(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, resps) {
		t.Fatalf("decoded %+v != %+v", back, resps)
	}
}

func TestGoldenSessionUpdateReplyFrame(t *testing.T) {
	up := api.Update{
		Seq:       3,
		Admitted:  true,
		TeamSize:  2,
		Stats:     coord.DeltaStats{Slot: 2, Components: 2, Dirty: 1, Reused: 1, DBQueries: 2},
		ElapsedNS: 1_500_000,
	}
	payload := goldenFrame(t, "session_update_reply", func(e *Enc) {
		PutHeader(e, Header{Kind: KindReply, ID: 7})
		PutReplyOK(e, 200)
		PutUpdate(e, up)
	})
	d := NewDec(payload)
	GetHeader(d)
	if _, err := GetReply(d); err != nil {
		t.Fatal(err)
	}
	back := GetUpdate(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, up) {
		t.Fatalf("decoded %+v != %+v", back, up)
	}
}

func TestGoldenSessionStatusReplyFrame(t *testing.T) {
	st := api.SessionStatus{
		ID:      "alpha",
		Live:    1,
		Queries: []eq.Query{sampleQuery()},
		Result: &coord.Result{
			Set:       []int{0},
			Values:    map[int]map[string]eq.Value{0: {"x": "t0", "y": "t0"}},
			DBQueries: 2,
		},
		Totals:   api.Totals{Events: 4, Joins: 3, Leaves: 1, Dirty: 4, Reused: 2, DBQueries: 9},
		TeamSize: 1,
		Trace: &coord.Trace{Components: []coord.ComponentEvent{
			{Members: []int{0}, Set: []int{0}, Status: "grounded", SetSize: 1, Combined: "T(q0.x, 'c0')"},
		}},
	}
	payload := goldenFrame(t, "session_status_reply", func(e *Enc) {
		PutHeader(e, Header{Kind: KindReply, ID: 9})
		PutReplyOK(e, 200)
		PutSessionStatus(e, st)
	})
	d := NewDec(payload)
	GetHeader(d)
	if _, err := GetReply(d); err != nil {
		t.Fatal(err)
	}
	back := GetSessionStatus(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, st) {
		t.Fatalf("decoded %+v != %+v", back, st)
	}
}

func TestGoldenErrorReplyFrame(t *testing.T) {
	payload := goldenFrame(t, "error_reply", func(e *Enc) {
		PutHeader(e, Header{Kind: KindReply, ID: 2})
		PutReplyErr(e, &api.Error{
			Status:  409,
			Code:    coord.CodeUnsafeArrival,
			Message: "coord: arrival would make the query set unsafe u9: would make queries [1 4] unsafe",
		})
	})
	d := NewDec(payload)
	GetHeader(d)
	status, err := GetReply(d)
	if status != 409 {
		t.Fatalf("status %d", status)
	}
	re, ok := err.(*api.Error)
	if !ok {
		t.Fatalf("reply error %T", err)
	}
	if re.Code != coord.CodeUnsafeArrival || re.Status != 409 {
		t.Fatalf("decoded %+v", re)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenTenantRequestFrame pins the admission envelope: the tenant
// name, then the wrapped request verbatim. The inner frame here is the
// same coordinate request as coordinate_request.bin.
func TestGoldenTenantRequestFrame(t *testing.T) {
	inner := CoordinateReq{Requests: []api.Request{{ID: "r1", Queries: []eq.Query{sampleQuery()}}}}
	var ie Enc
	inner.Encode(&ie)
	env := TenantReq{Tenant: "acme", Kind: KindCoordinate, Body: ie.Bytes()}
	payload := goldenFrame(t, "tenant_request", func(e *Enc) {
		PutHeader(e, Header{Kind: KindTenant, ID: 4})
		env.Encode(e)
	})
	d := NewDec(payload)
	if h := GetHeader(d); h.Kind != KindTenant || h.ID != 4 {
		t.Fatalf("header %+v", h)
	}
	back := DecodeTenantReq(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if back.Tenant != "acme" || back.Kind != KindCoordinate || !bytes.Equal(back.Body, ie.Bytes()) {
		t.Fatalf("decoded %+v != %+v", back, env)
	}
	// The aliased body decodes as the inner request.
	id := NewDec(back.Body)
	if got := DecodeCoordinateReq(id); id.Finish() != nil || !reflect.DeepEqual(got.Requests, inner.Requests) {
		t.Fatalf("inner decode %+v != %+v", got, inner)
	}
}

// TestGoldenThrottledReplyFrame pins the throttled error reply with its
// retry-after hint, the binary twin of the HTTP 429 envelope.
func TestGoldenThrottledReplyFrame(t *testing.T) {
	payload := goldenFrame(t, "throttled_reply", func(e *Enc) {
		PutHeader(e, Header{Kind: KindReply, ID: 5})
		PutReplyErr(e, &api.Error{
			Status:       429,
			Code:         "throttled",
			Message:      `admission: tenant "hot" throttled (rate)`,
			RetryAfterMS: 100,
		})
	})
	d := NewDec(payload)
	GetHeader(d)
	status, err := GetReply(d)
	if status != 429 {
		t.Fatalf("status %d", status)
	}
	re, ok := err.(*api.Error)
	if !ok || re.Code != "throttled" || re.RetryAfterMS != 100 {
		t.Fatalf("decoded %+v", err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenPushFrame(t *testing.T) {
	p := Push{Session: "alpha", QueryID: "u9", Seq: 12}
	payload := goldenFrame(t, "push", func(e *Enc) {
		PutHeader(e, Header{Kind: KindPush, ID: 0})
		p.Encode(e)
	})
	d := NewDec(payload)
	if h := GetHeader(d); h.Kind != KindPush || h.ID != 0 {
		t.Fatalf("header %+v", h)
	}
	back := DecodePush(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("decoded %+v != %+v", back, p)
	}
}

// jsonRoundTrip pushes v through the JSON codec into out, the way the
// HTTP protocol would deliver it.
func jsonRoundTrip(t *testing.T, v, out any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryMatchesJSONSemantics pins the nil-versus-empty contract at
// the DTO level: a value decoded from the binary codec must be
// DeepEqual to the same value decoded from the JSON codec, including
// the cases where JSON's omitempty normalizes empty to absent.
func TestBinaryMatchesJSONSemantics(t *testing.T) {
	sameAsJSON(t, "query", PutQuery, GetQuery,
		sampleQuery(),
		eq.Query{ID: "bare", Head: []eq.Atom{eq.NewAtom("R", eq.C("U3"), eq.V("z"))}},
		eq.Query{Head: []eq.Atom{eq.NewAtom("R", eq.C("U4"), eq.V("w"))}, Body: []eq.Atom{}, Post: []eq.Atom{}},
		eq.Query{ID: "cst", Head: []eq.Atom{eq.NewAtom("S", eq.C(""), eq.C("v"))}, Body: []eq.Atom{eq.NewAtom("T", eq.V("q"), eq.C("c1"))}})
	sameAsJSON(t, "result", PutResult, GetResult,
		nil,
		&coord.Result{},
		&coord.Result{Set: []int{}},
		sampleResult(),
		&coord.Result{Set: []int{2}, Values: map[int]map[string]eq.Value{}, DBQueries: 1},
		&coord.Result{Set: []int{0}, Values: map[int]map[string]eq.Value{0: {}}})
	sameAsJSON(t, "trace", PutTrace, GetTrace,
		nil,
		&coord.Trace{},
		&coord.Trace{Pruned: []coord.PruneEvent{}, Components: []coord.ComponentEvent{}},
		&coord.Trace{Pruned: []coord.PruneEvent{{Query: 1, Reason: "duplicate"}}},
		&coord.Trace{Components: []coord.ComponentEvent{{Members: []int{0, 1}, Status: "pruned"}}})
	sameAsJSON(t, "health", PutHealth, GetHealth,
		api.Health{Status: "ok"},
		api.Health{Status: "degraded", Sessions: 2, UptimeS: 1.5, Degraded: true, DegradedCause: "disk full",
			Cluster: &api.ClusterHealth{Self: "n1", Nodes: 3, PeersDown: []string{}}},
		api.Health{Status: "ok", Cluster: &api.ClusterHealth{Self: "n2", Nodes: 3, PeersDown: []string{"n1", "n3"}}})
	sameAsJSON(t, "cluster status", PutClusterStatus, GetClusterStatus,
		api.ClusterStatus{},
		api.ClusterStatus{Enabled: true, Nodes: []api.ClusterNode{}, Relations: []api.RelationPlacement{}},
		api.ClusterStatus{Enabled: true, Self: "n1", VirtualNodes: 64, Version: "v1",
			Nodes:     []api.ClusterNode{{Name: "n1", Addr: "a:1", Self: true}, {Name: "n2", Addr: "b:1", Connected: true}},
			Relations: []api.RelationPlacement{{Relation: "T", Column: 1}}})
}

// sameAsJSON checks that each value decodes from the binary codec to
// what the JSON codec decodes it to.
func sameAsJSON[T any](t *testing.T, what string, put func(*Enc, T), get func(*Dec) T, values ...T) {
	t.Helper()
	for i, v := range values {
		var viaJSON T
		jsonRoundTrip(t, v, &viaJSON)
		var e Enc
		put(&e, v)
		d := NewDec(e.Bytes())
		viaBinary := get(d)
		if err := d.Finish(); err != nil {
			t.Fatalf("%s %d: %v", what, i, err)
		}
		if !reflect.DeepEqual(viaBinary, viaJSON) {
			t.Errorf("%s %d: binary %#v != json %#v", what, i, viaBinary, viaJSON)
		}
	}
}

// TestClientConnPipelines drives a ClientConn over net.Pipe against a
// hand-driven server: of four calls in flight two are answered out of
// order, one of them with a typed error, a push between the replies
// reaches onPush, and when the peer drops, both calls still in flight
// and every later one fail with an error wrapping ErrConnClosed.
func TestClientConnPipelines(t *testing.T) {
	nc, peer := net.Pipe()
	asked := make(chan Header, 4)
	go func() { // the server's read side: the magic, then request headers
		br := bufio.NewReader(peer)
		if magic, err := br.Peek(len(Magic)); err != nil || string(magic) != Magic {
			t.Errorf("preamble %q (%v)", magic, err)
		}
		br.Discard(len(Magic))
		for payload, err := ReadFrame(br, nil); err == nil; payload, err = ReadFrame(br, nil) {
			asked <- GetHeader(NewDec(payload))
		}
	}()
	pushes := make(chan Push, 1)
	cc := NewClientConn(nc, func(p Push) { pushes <- p })
	type answer struct {
		status int
		body   []byte
		err    error
	}
	call := func() (<-chan answer, uint64) {
		ch := make(chan answer, 1)
		go func() {
			status, rep, err := cc.Call(context.Background(), KindHealth, func(e *Enc) { e.String("ping") })
			ch <- answer{status, rep.Body, err}
		}()
		return ch, (<-asked).ID
	}
	send := func(h Header, body func(*Enc)) {
		var e Enc
		PutHeader(&e, h)
		body(&e)
		if err := WriteFrame(peer, e.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	first, _ := call()
	second, id2 := call()
	third, id3 := call()
	fourth, _ := call()
	send(Header{Kind: KindReply, ID: id3}, func(e *Enc) { PutReplyOK(e, 200); e.String("third") })
	send(Header{Kind: KindPush}, Push{Session: "s", QueryID: "q", Seq: 3}.Encode)
	refusal := &api.Error{Status: 404, Code: api.CodeSessionNotFound, Message: "no session s"}
	send(Header{Kind: KindReply, ID: id2}, func(e *Enc) { PutReplyErr(e, refusal) })
	if a := <-third; a.err != nil || a.status != 200 || NewDec(a.body).String() != "third" {
		t.Fatalf("third call: %+v", a)
	}
	if p := <-pushes; p != (Push{Session: "s", QueryID: "q", Seq: 3}) {
		t.Fatalf("push %+v", p)
	}
	var ae *api.Error
	if a := <-second; !errors.As(a.err, &ae) || *ae != *refusal {
		t.Fatalf("second call: %+v, want %+v", a, refusal)
	}
	peer.Close()
	for i, inFlight := range []<-chan answer{first, fourth} {
		if a := <-inFlight; !errors.Is(a.err, ErrConnClosed) {
			t.Fatalf("call %d in flight when the peer dropped: %+v", i, a)
		}
	}
	if _, _, err := cc.Call(context.Background(), KindHealth, nil); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("a call on a dead connection: %v", err)
	}
	cc.Close()
}

// TestCloseEndsTheConnection: Close, once or twice, fails the call in
// flight and every later one with the bare ErrConnClosed, closes the
// socket under the peer, and leaves no call pending.
func TestCloseEndsTheConnection(t *testing.T) {
	nc, peer := net.Pipe()
	peer.SetDeadline(time.Now().Add(10 * time.Second))
	asked, read := make(chan struct{}), make(chan error, 1)
	go func() { // the server's read side: the magic, one request, then the end
		br := bufio.NewReader(peer)
		br.Discard(len(Magic))
		ReadFrame(br, nil)
		close(asked)
		_, err := ReadFrame(br, nil)
		read <- err
	}()
	cc := NewClientConn(nc, nil)
	done := make(chan error, 1)
	go func() {
		_, _, err := cc.Call(context.Background(), KindHealth, nil)
		done <- err
	}()
	<-asked
	cc.Close()
	cc.Close()
	if err := <-done; err != ErrConnClosed {
		t.Fatalf("the call in flight at Close: %v, want the bare %v", err, ErrConnClosed)
	}
	if err := <-read; err != io.EOF {
		t.Fatalf("the peer's read after Close: %v, want io.EOF", err)
	}
	<-cc.Done()
	if status, _, err := cc.Call(context.Background(), KindHealth, nil); status != 0 || err != ErrConnClosed {
		t.Fatalf("a call after Close: status %d, %v", status, err)
	}
	if cc.pending != nil {
		t.Fatalf("calls pending after Close: %v", cc.pending)
	}
}

// TestBadFrameKillsTheConnection: a frame the client cannot take — a
// request kind, or a push with bytes after its body — fails the call
// in flight with the decode error, as the peer's going fails it with
// EOF. Before that, an error reply hands its caller no body, a reply
// leaves nothing pending, and a second reply to the same call is
// dropped.
func TestBadFrameKillsTheConnection(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  func(e *Enc)
		want string
	}{
		{"request kind", func(e *Enc) { PutHeader(e, Header{Kind: KindJoin, ID: 9}) }, "unexpected join frame from server"},
		{"long push", func(e *Enc) { PutHeader(e, Header{Kind: KindPush}); Push{Session: "s"}.Encode(e); e.Byte(0) }, "trailing garbage"},
		{"peer gone", nil, "EOF"},
	} {
		nc, peer := net.Pipe()
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		peer.SetDeadline(time.Now().Add(10 * time.Second))
		asked := make(chan uint64, 2)
		go func() {
			br := bufio.NewReader(peer)
			br.Discard(len(Magic))
			for payload, err := ReadFrame(br, nil); err == nil; payload, err = ReadFrame(br, nil) {
				asked <- GetHeader(NewDec(payload)).ID
			}
		}()
		cc := NewClientConn(nc, func(Push) { t.Errorf("%s: a push reached the callback", c.name) })
		send := func(body func(*Enc)) {
			var e Enc
			body(&e)
			if err := WriteFrame(peer, e.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
		reply := func(id uint64) func(*Enc) {
			return func(e *Enc) { PutHeader(e, Header{Kind: KindReply, ID: id}); PutReplyOK(e, 200) }
		}
		refused := make(chan Reply, 1)
		go func() {
			_, rep, _ := cc.Call(context.Background(), KindHealth, nil)
			refused <- rep
		}()
		send(func(e *Enc) {
			PutHeader(e, Header{Kind: KindReply, ID: <-asked})
			PutReplyErr(e, &api.Error{Status: 404})
		})
		if rep := <-refused; rep.Body != nil || rep.buf != nil {
			t.Errorf("%s: an error reply came with a body: %+v", c.name, rep)
		}
		go cc.Call(context.Background(), KindHealth, nil)
		id := <-asked
		send(reply(id))
		send(reply(id)) // dropped: nobody waits for it
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			cc.mu.Lock()
			n := len(cc.pending)
			cc.mu.Unlock()
			if n == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d calls pending after their reply", c.name, n)
			}
		}
		done := make(chan error, 1)
		go func() {
			_, _, err := cc.Call(context.Background(), KindHealth, nil)
			done <- err
		}()
		<-asked
		if c.bad == nil {
			peer.Close()
		} else {
			send(c.bad)
		}
		if err := <-done; !errors.Is(err, ErrConnClosed) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: the call in flight: %v, want %q", c.name, err, c.want)
		}
		peer.Close()
	}
}

// refusingConn fails every write; its reads wait for Close.
type refusingConn struct{ net.Conn }

var errRefused = errors.New("refused")

func (refusingConn) Write([]byte) (int, error) { return 0, errRefused }

// TestPreambleFailureKillsTheConnection: a connection that cannot send
// its magic is dead at once, and the first call fails with the write's
// error rather than wait for a read that never comes.
func TestPreambleFailureKillsTheConnection(t *testing.T) {
	nc, peer := net.Pipe()
	defer peer.Close()
	cc := NewClientConn(refusingConn{nc}, nil)
	defer cc.Close()
	select {
	case <-cc.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("a connection whose preamble failed is still alive")
	}
	if _, _, err := cc.Call(context.Background(), KindHealth, nil); !errors.Is(err, ErrConnClosed) || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("a call after the preamble failed: %v", err)
	}
}

// TestOversizedCallFailsAlone: a call whose request is over MaxFrame is
// never written. It fails alone with the 413 bad_request HTTP answers
// such a body: a call pipelined beside it and the next call succeed on
// the same connection, and its error is no dead connection's.
func TestOversizedCallFailsAlone(t *testing.T) {
	nc, peer := net.Pipe()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	peer.SetDeadline(time.Now().Add(10 * time.Second))
	asked := make(chan uint64, 4)
	go func() { // the server's read side: the magic, then request ids
		defer close(asked)
		br := bufio.NewReader(peer)
		br.Discard(len(Magic))
		for payload, err := ReadFrame(br, nil); err == nil; payload, err = ReadFrame(br, nil) {
			asked <- GetHeader(NewDec(payload)).ID
		}
	}()
	cc := NewClientConn(nc, nil)
	defer cc.Close()
	call := func() <-chan error {
		done := make(chan error, 1)
		go func() {
			_, rep, err := cc.Call(context.Background(), KindHealth, nil)
			if err == nil && NewDec(rep.Body).String() != "ok" {
				err = fmt.Errorf("reply body %q", rep.Body)
			}
			rep.Release()
			done <- err
		}()
		return done
	}
	answer := func(id uint64) {
		var e Enc
		PutHeader(&e, Header{Kind: KindReply, ID: id})
		PutReplyOK(&e, 200)
		e.String("ok")
		if err := WriteFrame(peer, e.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	neighbour := call()
	id := <-asked

	big := make([]byte, MaxFrame)
	status, rep, err := cc.Call(context.Background(), KindJoin, func(e *Enc) { e.Raw(big) })
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Status != 413 || ae.Code != api.CodeBadRequest || status != 413 || rep.Body != nil || errors.Is(err, ErrConnClosed) {
		t.Fatalf("oversized call: status %d, %v; want 413 and a bad_request *api.Error", status, err)
	}
	cc.mu.Lock()
	pending := len(cc.pending)
	cc.mu.Unlock()
	if pending != 1 {
		t.Fatalf("%d calls pending, want the neighbour's alone", pending)
	}

	answer(id)
	if err := <-neighbour; err != nil {
		t.Fatalf("the call pipelined beside it: %v", err)
	}
	next := call()
	answer(<-asked)
	if err := <-next; err != nil {
		t.Fatalf("the next call: %v", err)
	}
}

// TestFailedCallsAnswerNoStatus: a call that fails carries status 0,
// whatever failed it. A reply that does not decode — its status cut
// short, or its error — fails its call alone with ErrMalformed and the
// connection serves on; a cancelled call returns the context's error;
// and a request whose write fails kills the connection with the write's
// error.
func TestFailedCallsAnswerNoStatus(t *testing.T) {
	nc, peer := net.Pipe()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	peer.SetDeadline(time.Now().Add(10 * time.Second))
	asked := make(chan uint64, 4)
	go func() { // the server's read side: the magic, then request ids
		defer close(asked)
		br := bufio.NewReader(peer)
		br.Discard(len(Magic))
		for payload, err := ReadFrame(br, nil); err == nil; payload, err = ReadFrame(br, nil) {
			asked <- GetHeader(NewDec(payload)).ID
		}
	}()
	conn := &failingWrites{Conn: nc}
	cc := NewClientConn(conn, nil)
	defer cc.Close()
	type result struct {
		status int
		err    error
	}
	call := func(ctx context.Context) <-chan result {
		done := make(chan result, 1)
		go func() {
			status, rep, err := cc.Call(ctx, KindHealth, nil)
			rep.Release()
			done <- result{status, err}
		}()
		return done
	}
	for _, body := range []func(*Enc){
		func(e *Enc) { e.Bool(true) },                         // a success whose status is cut
		func(e *Enc) { e.Bool(false); e.Int(404); e.Byte(1) }, // an error whose fields are cut
		func(e *Enc) { PutReplyOK(e, 200) },                   // a sound reply
	} {
		done := call(context.Background())
		var e Enc
		PutHeader(&e, Header{Kind: KindReply, ID: <-asked})
		body(&e)
		if err := WriteFrame(peer, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		r := <-done
		if sound := r.err == nil; sound != (r.status == 200) || !sound && (r.status != 0 || !errors.Is(r.err, ErrMalformed)) {
			t.Fatalf("reply %x: status %d, %v", e.Bytes(), r.status, r.err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := call(ctx)
	<-asked
	cancel()
	if r := <-done; r.status != 0 || r.err != context.Canceled {
		t.Fatalf("a cancelled call: status %d, %v", r.status, r.err)
	}

	conn.fail.Store(true)
	if r := <-call(context.Background()); r.status != 0 || !errors.Is(r.err, ErrConnClosed) || !strings.Contains(r.err.Error(), errRefused.Error()) {
		t.Fatalf("a call whose write failed: status %d, %v", r.status, r.err)
	}
	select {
	case <-cc.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("a connection whose write failed is still alive")
	}
}

// failingWrites fails every write once fail is set.
type failingWrites struct {
	net.Conn
	fail atomic.Bool
}

func (c *failingWrites) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, errRefused
	}
	return c.Conn.Write(p)
}

// TestReplyBufferReleasedOnce: every frame the read loop reads into a
// pooled buffer goes back exactly once — a success's when its caller
// releases the Reply (a second Release gives nothing back), an error
// reply's, a push's and an abandoned call's late reply by the read loop
// — a reply racing its caller's cancellation at most once, and a call
// the connection's death fails holds none.
func TestReplyBufferReleasedOnce(t *testing.T) {
	var released atomic.Int64
	recycle = func(p *[]byte) { released.Add(1); PutBuf(p) }
	t.Cleanup(func() { recycle = PutBuf })
	nc, peer := net.Pipe()
	// Past the deadline both ends fail, and with them every wait below.
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	peer.SetDeadline(time.Now().Add(10 * time.Second))
	asked := make(chan uint64, 1)
	go func() { // the server's read side: the magic, then request ids
		defer close(asked)
		br := bufio.NewReader(peer)
		br.Discard(len(Magic))
		for payload, err := ReadFrame(br, nil); err == nil; payload, err = ReadFrame(br, nil) {
			asked <- GetHeader(NewDec(payload)).ID
		}
	}()
	cc := NewClientConn(nc, nil)
	defer cc.Close()
	call := func(ctx context.Context) (<-chan error, uint64) {
		done := make(chan error, 1)
		go func() {
			_, rep, err := cc.Call(ctx, KindHealth, nil)
			if err == nil && NewDec(rep.Body).String() != "ok" {
				err = fmt.Errorf("reply body %q", rep.Body)
			}
			rep.Release()
			rep.Release()
			done <- err
		}()
		return done, <-asked
	}
	frames := int64(0)
	send := func(h Header, body func(*Enc)) {
		var e Enc
		PutHeader(&e, h)
		body(&e)
		if err := WriteFrame(peer, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		frames++
	}
	ok := func(e *Enc) { PutReplyOK(e, 200); e.String("ok") }

	// The read loop handles frames in order, and a successful caller
	// releases its reply before it returns: once it has, every frame
	// before that reply has been released too.
	succeed := func() {
		done, id := call(context.Background())
		send(Header{Kind: KindReply, ID: id}, ok)
		if err := <-done; err != nil {
			t.Fatalf("success: %v", err)
		}
	}
	succeed()
	done, id := call(context.Background())
	send(Header{Kind: KindReply, ID: id}, func(e *Enc) { PutReplyErr(e, &api.Error{Status: 404, Code: api.CodeSessionNotFound}) })
	if err := <-done; !errors.Is(err, api.ErrSessionNotFound) {
		t.Fatalf("error reply: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done, id = call(ctx)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned call: %v", err)
	}
	send(Header{Kind: KindReply, ID: id}, ok)
	send(Header{Kind: KindPush}, Push{Session: "s"}.Encode)
	succeed()
	if got := released.Load(); got != frames {
		t.Fatalf("%d buffers released for %d frames", got, frames)
	}
	for range 64 {
		ctx, cancel := context.WithCancel(context.Background())
		done, id := call(ctx)
		go cancel()
		send(Header{Kind: KindReply, ID: id}, ok)
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("call racing its cancellation: %v", err)
		}
	}
	succeed()
	settled := released.Load()
	if settled > frames {
		t.Fatalf("%d buffers released for %d frames", settled, frames)
	}
	done, _ = call(context.Background())
	peer.Close()
	if err := <-done; !errors.Is(err, ErrConnClosed) {
		t.Fatalf("call in flight when the peer dropped: %v", err)
	}
	if got := released.Load(); got != settled {
		t.Fatalf("the connection's death released %d buffers", got-settled)
	}
}

// TestDeterministicEncoding pins that map-bearing DTOs encode
// identically across runs (sorted key order), which the golden frames
// depend on.
func TestDeterministicEncoding(t *testing.T) {
	r := sampleResult()
	var first []byte
	for i := 0; i < 32; i++ {
		var e Enc
		PutResult(&e, r)
		if first == nil {
			first = append([]byte(nil), e.Bytes()...)
			continue
		}
		if !bytes.Equal(e.Bytes(), first) {
			t.Fatalf("encoding %d differs: %x vs %x", i, e.Bytes(), first)
		}
	}
}

// TestDecodeValidation pins the decoder's input validation: the same
// malformed shapes the JSON codec rejects (empty variable names, empty
// relation names) fail typed here too.
func TestDecodeValidation(t *testing.T) {
	bad := []func(*Enc){
		func(e *Enc) { e.Byte(byte(eq.TermVar)); e.String("") }, // var needs a name
		func(e *Enc) { e.Byte(7); e.String("x") },               // unknown term kind
		func(e *Enc) { e.String(""); e.Uvarint(0) },             // atom needs a relation
		func(e *Enc) { e.Byte(2) },                              // bad bool
		func(e *Enc) { e.Uvarint(1 << 40) },                     // hostile string length
		func(e *Enc) { e.Uvarint(200); e.String("short") },      // hostile collection length
	}
	decoders := []func(*Dec){
		func(d *Dec) { GetTerm(d) },
		func(d *Dec) { GetTerm(d) },
		func(d *Dec) { getAtom(d, nil) },
		func(d *Dec) { d.Bool() },
		func(d *Dec) { _ = d.String() },
		func(d *Dec) { d.Len(2) },
	}
	for i, enc := range bad {
		var e Enc
		enc(&e)
		d := NewDec(e.Bytes())
		decoders[i](d)
		if d.Err() == nil {
			t.Errorf("case %d: malformed input decoded cleanly", i)
			continue
		}
		if !errors.Is(d.Err(), ErrMalformed) {
			t.Errorf("case %d: error %v is not ErrMalformed", i, d.Err())
		}
	}
}

// Encode appends the tenant envelope, as a binary client's
// PutTenantPrefix and the body it encodes after it do.
func (m TenantReq) Encode(e *Enc) {
	PutTenantPrefix(e, m.Tenant, m.Kind)
	e.Raw(m.Body)
}
