package server_test

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"entangled/internal/api"
	"entangled/internal/client"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/server"
	"entangled/internal/unify"
	"entangled/internal/wire"
	"entangled/internal/workload"
)

// A batch decodes into a pooled slab, from a frame or an HTTP body,
// that the server hands back once the batch is answered. These tests hold that lifetime: a slab is
// never reused while a walk can still read it.

// recordingGate holds the first store query until open is closed, and
// records the constants of every query body it lets through after that.
type recordingGate struct {
	db.Store
	first  atomic.Bool
	held   chan struct{} // closed once the first query waits
	open   chan struct{}
	opened atomic.Bool

	mu     sync.Mutex
	consts []eq.Value
}

func (g *recordingGate) enter(body []eq.Atom) {
	if g.first.CompareAndSwap(false, true) {
		close(g.held)
		<-g.open
	}
	if !g.opened.Load() {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, a := range body {
		for _, t := range a.Args {
			if !t.IsVar() {
				g.consts = append(g.consts, t.Const())
			}
		}
	}
}

func (g *recordingGate) Solve(body []eq.Atom) (db.Binding, bool, error) {
	g.enter(body)
	return g.Store.Solve(body)
}

func (g *recordingGate) SolveAll(body []eq.Atom, limit int) ([]db.Binding, error) {
	g.enter(body)
	return g.Store.SolveAll(body, limit)
}

func (g *recordingGate) Satisfiable(body []eq.Atom) (bool, error) {
	g.enter(body)
	return g.Store.Satisfiable(body)
}

func (g *recordingGate) SolveUnder(body []eq.Atom, sub *unify.Subst) (db.Binding, bool, error) {
	g.enter(body)
	return g.Store.SolveUnder(body, sub)
}

// TestAbandonedBatchKeepsItsSlab: a caller leaves while its batch's walk
// waits at the store — a binary connection closes, or an HTTP request is
// cancelled — so the call returns with its context ended while a worker
// still reads the decoded queries. Fifty more batches, each pinned to
// another table value, then decode and are served over the same
// protocol. When the store answers again, every query the first walk
// issues names only the first batch's constants: its slab went to the
// collector, not back to the pool.
func TestAbandonedBatchKeepsItsSlab(t *testing.T) {
	for _, proto := range []string{"binary", "http"} {
		t.Run(proto, func(t *testing.T) { abandonBatch(t, proto) })
	}
}

func abandonBatch(t *testing.T, proto string) {
	const rows, n = 8, 12
	g := &recordingGate{Store: workload.NewStore(1, rows, 0), held: make(chan struct{}), open: make(chan struct{})}
	srv, err := server.New(engine.New(g, engine.Options{Workers: 2}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln)
	open := sync.OnceFunc(func() { g.opened.Store(true); close(g.open) })
	t.Cleanup(func() { open(); ts.Close(); srv.Close() })
	httpC, err := client.New(ts.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dial := func() *client.Client {
		if proto == "http" {
			return httpC
		}
		c, err := client.New("tcp://"+ln.Addr().String(), client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ctx := context.Background()

	first := dial()
	callCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	abandoned := make(chan error, 1)
	go func() {
		_, err := first.CoordinateBatch(callCtx, []client.Request{{ID: "first", Queries: workload.ListQueriesAt(n, 0)}})
		abandoned <- err
	}()
	<-g.held
	if proto == "http" {
		cancel()
	} else {
		first.Close()
	}
	if err := <-abandoned; err == nil {
		t.Fatal("a batch whose caller left mid-walk answered")
	}
	// The server counts the abandoned request as failed when its submit
	// gives up, just before the call returns.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		m, err := httpC.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Coordinate.Errors == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics %+v: the abandoned request never gave up", m.Coordinate)
		}
	}
	time.Sleep(10 * time.Millisecond) // let the abandoned call return

	second := dial()
	defer second.Close()
	for i := range 50 {
		resps, err := second.CoordinateBatch(ctx, []client.Request{{ID: strconv.Itoa(i), Queries: workload.ListQueriesAt(n, 1+i%(rows-1))}})
		if err != nil || resps[0].Err != nil {
			t.Fatalf("batch %d: %v %v", i, err, resps)
		}
	}

	open()
	srv.Close() // waits for the first walk to finish
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.consts) == 0 {
		t.Fatal("the first walk issued no query with a constant once the store answered: its queries were cleared under it")
	}
	for _, c := range g.consts {
		if c != "c0" && c[0] != 'U' {
			t.Fatalf("the first walk queried constant %q, which only a later batch carries", c)
		}
	}
}

// TestRefusedBatchAnswersTheSameBytes: a batch refused as empty or over
// the cap answers the same frame every time, and a batch decoded after
// it, into a pooled slab, is served as usual.
func TestRefusedBatchAnswersTheSameBytes(t *testing.T) {
	const rows = 8
	_, _, srv := newDualLoopback(t, workload.NewStore(1, rows, 0), server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(wire.Magic)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var id uint64
	call := func(reqs []api.Request) []byte {
		t.Helper()
		id++
		f, _ := wire.EncodeFrame(nil, wire.Header{Kind: wire.KindCoordinate, ID: id}, wire.CoordinateReq{Requests: reqs}.Encode)
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
		payload, err := wire.ReadFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	refusal := func(msg string) []byte {
		var e wire.Enc
		wire.PutHeader(&e, wire.Header{Kind: wire.KindReply, ID: id})
		wire.PutReplyErr(&e, &api.Error{Status: 400, Code: api.CodeBadRequest, Message: msg})
		return e.Bytes()
	}
	over := make([]api.Request, 1025)
	for i := range over {
		over[i] = api.Request{ID: strconv.Itoa(i), Queries: workload.ListQueriesAt(2, i%rows)}
	}
	for round := range 3 {
		if got := call([]api.Request{}); !bytes.Equal(got, refusal("empty batch")) {
			t.Fatalf("round %d: empty batch answered %x", round, got)
		}
		if got := call(over); !bytes.Equal(got, refusal("batch of 1025 exceeds the 1024-request cap")) {
			t.Fatalf("round %d: batch of 1,025 answered %x", round, got)
		}
		qs := workload.ListQueriesAt(5, round)
		d := wire.NewDec(call([]api.Request{{ID: "ok", Queries: qs}}))
		if h := wire.GetHeader(d); h.ID != id {
			t.Fatalf("round %d: reply %+v to call %d", round, h, id)
		}
		if _, err := wire.GetReply(d); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		resps := wire.GetResponses(d)
		want, err := coord.SCCCoordinate(qs, workload.NewStore(1, rows, 0), coord.Options{})
		if d.Finish() != nil || err != nil || len(resps) != 1 || resps[0].Error != nil || !reflect.DeepEqual(resps[0].Result, want) {
			t.Fatalf("round %d: served %+v (%v), in-process %+v (%v)", round, resps, d.Err(), want, err)
		}
	}
}
