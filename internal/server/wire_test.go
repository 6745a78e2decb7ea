package server_test

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"entangled/internal/api"
	"entangled/internal/client"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/server"
	"entangled/internal/stream"
	"entangled/internal/wire"
	"entangled/internal/workload"
)

// newDualLoopback boots ONE server speaking both protocols — HTTP on an
// httptest listener, binary on a loopback TCP listener — and returns a
// client for each. Every equivalence assertion in this file drives the
// same server state through both and compares the decoded results.
func newDualLoopback(t *testing.T, store db.Store, sopts server.Options) (httpC, binC *client.Client, srv *server.Server) {
	t.Helper()
	e := engine.New(store, engine.Options{})
	srv, err := server.New(e, sopts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln)
	httpC, err = client.New(ts.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	binC, err = client.New("tcp://"+ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		binC.Close()
		ts.Close()
		srv.Close()
	})
	return httpC, binC, srv
}

// unsafeTrio builds the fanout-2 taxonomy fixture: two queries whose
// heads unify with the third query's post, so the set is unsafe in
// batch mode and the poster parks (or is rejected) in stream mode.
func unsafeTrio(prefix string) []eq.Query {
	mk := func(id, user string, posts ...string) eq.Query {
		q := eq.Query{
			ID:   id,
			Head: []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(user)), eq.V("x"))},
			Body: []eq.Atom{eq.NewAtom("T", eq.V("k"), eq.C(eq.Value("c0")))},
		}
		for _, p := range posts {
			q.Post = append(q.Post, eq.NewAtom("R", eq.C(eq.Value(p)), eq.V("y")))
		}
		return q
	}
	return []eq.Query{
		mk(prefix+"a", prefix+"A"),
		mk(prefix+"a2", prefix+"A"),
		mk(prefix+"p", prefix+"B", prefix+"A"),
	}
}

// sameClientError asserts both protocols produced the same typed
// *client.Error — status, code, message — and agree on every coord and
// stream sentinel under errors.Is.
func sameClientError(t *testing.T, what string, herr, berr error) {
	t.Helper()
	if (herr == nil) != (berr == nil) {
		t.Fatalf("%s: HTTP error %v, binary error %v", what, herr, berr)
	}
	if herr == nil {
		return
	}
	var he, be *client.Error
	if !errors.As(herr, &he) {
		t.Fatalf("%s: HTTP error %T is not *client.Error: %v", what, herr, herr)
	}
	if !errors.As(berr, &be) {
		t.Fatalf("%s: binary error %T is not *client.Error: %v", what, berr, berr)
	}
	if *he != *be {
		t.Fatalf("%s: errors differ:\nHTTP   %+v\nbinary %+v", what, he, be)
	}
	for _, sentinel := range []error{
		coord.ErrUnsafe, coord.ErrUnsafeArrival, coord.ErrTooManyQueries,
		stream.ErrDuplicateID, stream.ErrUnknownID,
	} {
		if errors.Is(herr, sentinel) != errors.Is(berr, sentinel) {
			t.Fatalf("%s: errors.Is(%v) disagrees: HTTP %v, binary %v", what, sentinel, herr, berr)
		}
	}
}

// TestWireCodecsEquivalent is the cross-codec harness for what fails:
// every reachable error-code path, an inline per-request error and a
// parked arrival go through the HTTP/JSON and binary codecs against one
// server, and each pair of decoded outcomes must be identical — same api
// DTOs, same *client.Error fields, same errors.Is sentinel behavior.
// Answers that succeed are the lattice's (lattice_test.go).
func TestWireCodecsEquivalent(t *testing.T) {
	const rows = 32
	store := workload.NewStore(2, rows, 0)
	httpC, binC, _ := newDualLoopback(t, store, server.Options{})
	ctx := context.Background()

	// A batch mixing a good request with an inline per-request error
	// (unsafe set): the error rides inside a 200 envelope on both
	// protocols with the same code and message.
	mixed := []client.Request{
		{ID: "bad", Queries: unsafeTrio("x")},
		{ID: "good", Queries: workload.ListQueriesAt(4, 3)},
	}
	hr, herr := httpC.CoordinateBatch(ctx, mixed)
	br, berr := binC.CoordinateBatch(ctx, mixed)
	if herr != nil || berr != nil {
		t.Fatalf("mixed batch: HTTP %v, binary %v", herr, berr)
	}
	if len(hr) != 2 || len(br) != 2 || hr[0].Err == nil || hr[1].Err != nil || !reflect.DeepEqual(hr[1], br[1]) ||
		hr[0].ID != br[0].ID || hr[0].Result != nil || br[0].Result != nil {
		t.Fatalf("mixed batch: HTTP %+v, binary %+v", hr, br)
	}
	sameClientError(t, "mixed", hr[0].Err, br[0].Err)

	// Transport-level error paths, pairwise. Each case runs the same
	// doomed call over both protocols against identical server state.
	errCases := []struct {
		name string
		call func(c *client.Client) error
	}{
		{"empty batch", func(c *client.Client) error {
			_, err := c.CoordinateBatch(ctx, nil)
			return err
		}},
		{"status of missing session", func(c *client.Client) error {
			_, err := c.Session("nope").Status(ctx, false)
			return err
		}},
		{"join missing session", func(c *client.Client) error {
			_, err := c.Session("nope").Join(ctx, workload.ChainQuery(0, 0, rows))
			return err
		}},
		{"delete missing session", func(c *client.Client) error {
			return c.Session("nope").Close(ctx)
		}},
	}
	for _, tc := range errCases {
		sameClientError(t, tc.name, tc.call(httpC), tc.call(binC))
	}

	// Session-scoped error paths need a session per protocol so both
	// observe the same (fresh) state: duplicate create, duplicate join,
	// unknown leave, unsafe arrival rejection.
	sessionErrs := func(c *client.Client, name string) (dup, dupJoin, unkLeave, unsafe error) {
		sess, err := c.CreateSession(ctx, name, false)
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		_, dup = c.CreateSession(ctx, name, false)
		trio := unsafeTrio(name)
		if _, err := sess.Join(ctx, trio[0]); err != nil {
			t.Fatalf("%s join: %v", name, err)
		}
		if _, err := sess.Join(ctx, trio[1]); err != nil {
			t.Fatalf("%s join: %v", name, err)
		}
		_, dupJoin = sess.Join(ctx, trio[0])
		_, unkLeave = sess.Leave(ctx, "nobody")
		_, unsafe = sess.Join(ctx, trio[2])
		return
	}
	// The two protocols necessarily use distinct session names (one
	// server); scrub the name out of the message before comparing.
	scrub := func(err error, name string) error {
		var ce *client.Error
		if errors.As(err, &ce) {
			ce.Message = strings.ReplaceAll(ce.Message, name, "NAME")
		}
		return err
	}
	hDup, hDupJoin, hUnk, hUnsafe := sessionErrs(httpC, "eh")
	bDup, bDupJoin, bUnk, bUnsafe := sessionErrs(binC, "eb")
	sameClientError(t, "duplicate create", scrub(hDup, "eh"), scrub(bDup, "eb"))
	sameClientError(t, "duplicate join", scrub(hDupJoin, "eh"), scrub(bDupJoin, "eb"))
	sameClientError(t, "unknown leave", scrub(hUnk, "eh"), scrub(bUnk, "eb"))
	sameClientError(t, "unsafe arrival", scrub(hUnsafe, "eh"), scrub(bUnsafe, "eb"))

	// Parked-arrival semantics: the binary 202 analogue must decode to
	// the same Update the HTTP 202 body carries.
	parkPair := func(c *client.Client, name string) (up interface{}) {
		sess, err := c.CreateSession(ctx, name, true)
		if err != nil {
			t.Fatal(err)
		}
		trio := unsafeTrio(name)
		for _, q := range trio[:2] {
			if _, err := sess.Join(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		u, err := sess.Join(ctx, trio[2])
		if err != nil {
			t.Fatalf("%s parked join errored: %v", name, err)
		}
		if !u.Parked || u.Admitted {
			t.Fatalf("%s parked join update %+v", name, u)
		}
		u.ElapsedNS = 0
		return u
	}
	if hu, bu := parkPair(httpC, "ph"), parkPair(binC, "pb"); !reflect.DeepEqual(hu, bu) {
		t.Fatalf("parked updates differ:\nHTTP   %+v\nbinary %+v", hu, bu)
	}

	// Every operation in the server's table, one pair each (health
	// included): the table drives this half, so an operation added
	// without both adapters — or without a pair here — fails.
	t.Run("table", tableEquivalence)
	t.Run("forwarded failures", forwardedFailureEquivalence)
	t.Run("server sentinels", serverSentinelEquivalence)
}

// TestBatchCapRefusedBothProtocols: a call of 1,024 requests is
// served, and one of 1,025 is refused whole as bad_request naming the
// cap, identically over HTTP and binary.
func TestBatchCapRefusedBothProtocols(t *testing.T) {
	const rows = 8
	httpC, binC, _ := newDualLoopback(t, workload.NewStore(1, rows, 0), server.Options{})
	ctx := context.Background()
	reqs := make([]client.Request, 1025)
	for i := range reqs {
		reqs[i] = client.Request{ID: strconv.Itoa(i), Queries: workload.ListQueriesAt(2, i%rows)}
	}
	for _, c := range []*client.Client{httpC, binC} {
		if _, err := c.CoordinateBatch(ctx, reqs[:1024]); err != nil {
			t.Fatalf("batch of 1,024: %v", err)
		}
	}
	_, herr := httpC.CoordinateBatch(ctx, reqs)
	_, berr := binC.CoordinateBatch(ctx, reqs)
	sameClientError(t, "batch of 1,025", herr, berr)
	var ce *client.Error
	if !errors.As(herr, &ce) || ce.Status != 400 || ce.Code != api.CodeBadRequest || !strings.Contains(ce.Message, "1024-request cap") {
		t.Fatalf("batch of 1,025: %v, want 400 bad_request naming the 1024-request cap", herr)
	}
}

// serverSentinelEquivalence: the refusals the serving layer raises
// itself unwrap to their api sentinels on the client, over both
// protocols — a missing session, and the backpressure of a full
// mailbox (one event held in the session's turn, the mailbox's 64
// queued behind it, the next refused).
func serverSentinelEquivalence(t *testing.T) {
	const rows = 8
	entered, release := make(chan struct{}, 2), make(chan struct{})
	httpC, binC, _ := newDualLoopback(t, workload.NewStore(1, rows, 0), server.Options{
		Session: stream.Options{OnUpdate: func(u stream.Update) {
			if u.Event.Query.ID == "hold" {
				entered <- struct{}{}
				<-release
			}
		}},
	})
	ctx := context.Background()
	var done sync.WaitGroup
	refusals := func(c *client.Client, name string) (missing, full error) {
		_, missing = c.Session("nope").Status(ctx, false)
		sess, err := c.CreateSession(ctx, name, false)
		if err != nil {
			t.Fatal(err)
		}
		results := make(chan error, 66)
		join := func(q eq.Query) {
			done.Add(1)
			go func() {
				defer done.Done()
				_, err := sess.Join(ctx, q)
				results <- err
			}()
		}
		hold := workload.ChainQuery(0, 0, rows)
		hold.ID = "hold"
		join(hold)
		<-entered
		// Of 65 more joins 64 fill the mailbox behind the held event;
		// the other is refused at once.
		for i := 1; i <= 65; i++ {
			join(workload.ChainQuery(i, 0, rows))
		}
		return missing, <-results
	}
	hMissing, hFull := refusals(httpC, "mh")
	bMissing, bFull := refusals(binC, "mb")
	close(release)
	done.Wait()
	sameClientError(t, "missing session", hMissing, bMissing)
	sameClientError(t, "full mailbox", hFull, bFull)
	if !errors.Is(hMissing, api.ErrSessionNotFound) || !errors.Is(bMissing, api.ErrSessionNotFound) {
		t.Fatalf("missing session: HTTP %v, binary %v; want both to wrap api.ErrSessionNotFound", hMissing, bMissing)
	}
	if !errors.Is(hFull, api.ErrMailboxFull) || !errors.Is(bFull, api.ErrMailboxFull) || !client.FateKnown(hFull) {
		t.Fatalf("full mailbox: HTTP %v, binary %v; want both to wrap api.ErrMailboxFull, fate known", hFull, bFull)
	}
}

// TestStalledSubscriberCannotStallItsSession: a binary client that
// subscribes to a session, then pipelines requests without reading
// their replies, fills its socket. The server's write to it fails at
// the write deadline and closes the connection, so no push to it can
// hold the session's turn: other clients' events keep completing, and
// the push the dead subscriber missed reaches the next subscriber from
// the backlog.
func TestStalledSubscriberCannotStallItsSession(t *testing.T) {
	srv, err := server.New(engine.New(workload.NewStore(1, 8, 0), engine.Options{}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetWriteTimeout(100 * time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(smallSendBuffers{ln})
	t.Cleanup(srv.Close)
	dial := func() *client.Client {
		c, err := client.New("tcp://"+ln.Addr().String(), client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sess, err := dial().CreateSession(ctx, "stall", true)
	if err != nil {
		t.Fatal(err)
	}
	// A parked poster, admitted (and pushed) once trio[1] leaves, and
	// enough live queries that a traced status reply is kilobytes.
	trio := unsafeTrio("s")
	queries := append([]eq.Query{}, trio...)
	for c := 1; c <= 24; c++ {
		queries = append(queries, workload.ChainQuery(c, 0, 8))
	}
	for i, q := range queries {
		if up, err := sess.Join(ctx, q); err != nil || up.Parked != (i == 2) {
			t.Fatalf("join %s: update %+v err %v", q.ID, up, err)
		}
	}

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A locked receive buffer, so the kernel cannot grow it to absorb
	// the replies the subscriber never reads.
	if err := raw.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	send := func(kind wire.Kind, id uint64, put func(*wire.Enc)) error {
		var e wire.Enc
		wire.PutHeader(&e, wire.Header{Kind: kind, ID: id})
		put(&e)
		return wire.WriteFrame(raw, e.Bytes())
	}
	if _, err := raw.Write([]byte(wire.Magic)); err != nil {
		t.Fatal(err)
	}
	if err := send(wire.KindSubscribe, 1, wire.SessionReq{Session: "stall"}.Encode); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(bufio.NewReader(raw), nil); err != nil {
		t.Fatal(err)
	}
	// From here on the subscriber reads nothing. It pipelines requests
	// until a write fails: the server, its replies stuck past the
	// deadline, has closed the connection.
	for id := uint64(2); send(wire.KindStatus, id, wire.StatusReq{Session: "stall", Trace: true}.Encode) == nil; id++ {
		if ctx.Err() != nil {
			t.Fatal("the server never closed the connection that stopped reading")
		}
		time.Sleep(100 * time.Microsecond)
	}

	left, err := sess.Leave(ctx, trio[1].ID)
	if err != nil {
		t.Fatalf("the departure that pushes: %v", err)
	}
	if _, err := sess.Join(ctx, workload.ChainQuery(0, 0, 8)); err != nil {
		t.Fatalf("an event after the push: %v", err)
	}

	got := make(chan client.Notification, 1)
	stop, err := dial().Session("stall").Subscribe(ctx, func(n client.Notification) { got <- n })
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	select {
	case n := <-got:
		if n.QueryID != trio[2].ID || n.Seq != left.Seq {
			t.Fatalf("push %+v, want query %s seq %d", n, trio[2].ID, left.Seq)
		}
	case <-ctx.Done():
		t.Fatal("the push the stalled subscriber missed never reached the next subscriber")
	}
}

// smallSendBuffers shrinks the send buffer of every accepted
// connection, so a peer that stops reading fills its socket quickly.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestWirePushParkedArrival pins the push contract end to end: a parked
// arrival over the binary connection (the 202 "parked":true analogue)
// is announced by exactly one push notification when the conflicting
// departure admits it.
func TestWirePushParkedArrival(t *testing.T) {
	store := workload.NewStore(1, 8, 0)
	_, binC, _ := newDualLoopback(t, store, server.Options{})
	ctx := context.Background()

	sess, err := binC.CreateSession(ctx, "pushy", true)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan client.Notification, 8)
	stop, err := sess.Subscribe(ctx, func(n client.Notification) { got <- n })
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	trio := unsafeTrio("w")
	for _, q := range trio[:2] {
		if _, err := sess.Join(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	up, err := sess.Join(ctx, trio[2])
	if err != nil || !up.Parked {
		t.Fatalf("poster join: update %+v err %v, want parked", up, err)
	}
	select {
	case n := <-got:
		t.Fatalf("push %+v before any departure", n)
	case <-time.After(50 * time.Millisecond):
	}

	// The departure clears the fanout conflict; the retry pass admits
	// the parked query and the admission must push exactly once.
	left, err := sess.Leave(ctx, trio[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n.Session != "pushy" || n.QueryID != trio[2].ID || n.Seq != left.Seq {
			t.Fatalf("push %+v, want session pushy query %s seq %d", n, trio[2].ID, left.Seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no push for the admitted parked arrival")
	}
	select {
	case n := <-got:
		t.Fatalf("duplicate push %+v", n)
	case <-time.After(150 * time.Millisecond):
	}

	// The server state agrees with the notification.
	st, err := sess.Status(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Live != 2 || st.Parked != 0 {
		t.Fatalf("status %+v, want the parked query live", st)
	}
}

// killableListener records accepted connections so a test can cut them
// mid-protocol, simulating a network drop between client and server.
type killableListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *killableListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *killableListener) killAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// TestWirePushSurvivesReconnect kills the subscriber's connection out
// from under it and checks the exactly-once promise holds across the
// redial: pushes raised while the client is away are buffered and
// flushed to the re-subscribed connection, never dropped, never
// duplicated.
func TestWirePushSurvivesReconnect(t *testing.T) {
	store := workload.NewStore(1, 8, 0)
	e := engine.New(store, engine.Options{})
	srv, err := server.New(e, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kl := &killableListener{Listener: ln}
	go srv.ServeWire(kl)

	httpC, err := client.New(ts.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	binC, err := client.New("tcp://"+ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer binC.Close()
	ctx := context.Background()

	// Park the poster over HTTP (the session does not care which
	// protocol drives it), subscribe over binary.
	sess, err := httpC.CreateSession(ctx, "flaky", true)
	if err != nil {
		t.Fatal(err)
	}
	trio := unsafeTrio("f")
	for _, q := range trio[:2] {
		if _, err := sess.Join(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if up, err := sess.Join(ctx, trio[2]); err != nil || !up.Parked {
		t.Fatalf("poster join: %+v %v", up, err)
	}
	got := make(chan client.Notification, 8)
	stop, err := binC.Session("flaky").Subscribe(ctx, func(n client.Notification) { got <- n })
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// Cut every server-side connection. The binary transport's keeper
	// redials and re-subscribes on its own; the departure below may
	// land before or after the re-subscribe — either way the push must
	// arrive exactly once (live delivery or backlog flush).
	kl.killAll()
	if _, err := sess.Leave(ctx, trio[1].ID); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n.Session != "flaky" || n.QueryID != trio[2].ID {
			t.Fatalf("push %+v, want query %s", n, trio[2].ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push lost across reconnect")
	}
	select {
	case n := <-got:
		t.Fatalf("duplicate push after reconnect: %+v", n)
	case <-time.After(150 * time.Millisecond):
	}
}

// TestWirePushBacklogFlush is the deterministic no-subscriber path: a
// push raised with nobody connected buffers server-side and flushes,
// exactly once, to the next subscriber.
func TestWirePushBacklogFlush(t *testing.T) {
	store := workload.NewStore(1, 8, 0)
	httpC, binC, _ := newDualLoopback(t, store, server.Options{})
	ctx := context.Background()

	sess, err := httpC.CreateSession(ctx, "later", true)
	if err != nil {
		t.Fatal(err)
	}
	trio := unsafeTrio("l")
	for _, q := range trio[:2] {
		if _, err := sess.Join(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if up, err := sess.Join(ctx, trio[2]); err != nil || !up.Parked {
		t.Fatalf("poster join: %+v %v", up, err)
	}
	left, err := sess.Leave(ctx, trio[1].ID)
	if err != nil {
		t.Fatal(err)
	}

	// Nobody was subscribed when the admission happened; subscribing
	// now must deliver the buffered notification.
	got := make(chan client.Notification, 8)
	stop, err := binC.Session("later").Subscribe(ctx, func(n client.Notification) { got <- n })
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	select {
	case n := <-got:
		if n.Session != "later" || n.QueryID != trio[2].ID || n.Seq != left.Seq {
			t.Fatalf("buffered push %+v, want query %s seq %d", n, trio[2].ID, left.Seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("buffered push never flushed")
	}
	select {
	case n := <-got:
		t.Fatalf("buffered push duplicated: %+v", n)
	case <-time.After(150 * time.Millisecond):
	}
}

// TestSilentBinaryClientIsDropped: a connection that sends nothing, or
// part of the magic, is closed once the handshake deadline passes, and
// the goroutine serving it exits. One that sends the magic keeps its
// connection past the deadline.
func TestSilentBinaryClientIsDropped(t *testing.T) {
	srv, err := server.New(engine.New(workload.NewStore(1, 8, 0), engine.Options{}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 100 * time.Millisecond
	srv.SetHandshakeTimeout(deadline)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln)
	t.Cleanup(srv.Close)
	dial := func(hello string) net.Conn {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, err := c.Write([]byte(hello)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	serving := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*Server).serveWireConn(")
	}
	before := serving() // what earlier tests left, on their way out
	start := time.Now()
	silent, partial, greeted := dial(""), dial(wire.Magic[:2]), dial(wire.Magic)
	for _, c := range []net.Conn{silent, partial} {
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := c.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("a connection without the magic read %d bytes, %v; want it closed", n, err)
		}
	}
	if waited := time.Since(start); waited < deadline {
		t.Fatalf("closed after %v, before the %v deadline", waited, deadline)
	}
	for n := serving(); n > before+1; n = serving() {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%d connections served, %d before the three dials; want the greeted one alone added", n, before)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(deadline)
	w := bufio.NewWriter(greeted)
	var e wire.Enc
	wire.PutHeader(&e, wire.Header{Kind: wire.KindHealth, ID: 1})
	if err := wire.WriteFrame(w, e.Bytes()); err != nil || w.Flush() != nil {
		t.Fatal(err)
	}
	greeted.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := wire.ReadFrame(bufio.NewReader(greeted), nil); err != nil {
		t.Fatalf("the greeted connection, past the deadline: %v", err)
	}
}

// TestSilentBinaryClientsHoldLittleHeap: a connection that has not sent
// the magic holds its goroutine until the handshake deadline, but no
// read buffer: 200 of them grow the heap by less than 8 KiB each.
func TestSilentBinaryClientsHoldLittleHeap(t *testing.T) {
	_, _, srv := newDualLoopback(t, workload.NewStore(1, 8, 0), server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	serving := func() int {
		buf := make([]byte, 8<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*Server).serveWireConn(")
	}
	const n = 200
	before, served := heap(), serving()
	for range n {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
	}
	for start := time.Now(); serving() < served+n; time.Sleep(5 * time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%d connections served, want %d", serving()-served, n)
		}
	}
	if grown := heap() - before; grown >= n*8<<10 {
		t.Fatalf("%d silent connections grew the heap by %d B, %d B each; want under 8 KiB each", n, grown, grown/n)
	}
}

// TestServeWireAfterCloseIsClean: a listener handed to a server whose
// drain has begun is closed and ServeWire returns nil, as a listener the
// drain closed under it does, so a caller that starts ServeWire on a
// goroutine sees a clean stop whichever wins the race.
func TestServeWireAfterCloseIsClean(t *testing.T) {
	srv, err := server.New(engine.New(workload.NewStore(1, 8, 0), engine.Options{}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := srv.ServeWire(ln); err != nil {
		t.Fatalf("ServeWire after Close = %v, want nil", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept on the listener after ServeWire returned: %v, want net.ErrClosed", err)
	}
}
