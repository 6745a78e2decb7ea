package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/fault"
	"entangled/internal/persist"
	"entangled/internal/stream"
	"entangled/internal/wire"
	"entangled/internal/workload"
)

// heldDrop holds a journal's Drop until release is closed, widening the
// window between a session leaving the registry and its drop frame
// reaching the log.
type heldDrop struct {
	*persist.SessionJournal
	release chan struct{}
}

func (j heldDrop) Drop() error {
	<-j.release
	return j.SessionJournal.Drop()
}

// TestRecreateWaitsForTheDrop: a create of a name whose removal is still
// being logged waits for the old life's drop frame, so the log never
// reads create(new), drop(old), event(new) — a history whose replay
// ends the new life and then finds its event without a create. The data
// dir reopens with the new life and its event.
func TestRecreateWaitsForTheDrop(t *testing.T) {
	const rows = 32
	dir := t.TempDir()
	b, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyAll(b, workload.UserTableMutations(rows)); err != nil {
		t.Fatal(err)
	}
	e := engine.New(b, engine.Options{})
	r := newRegistry(func(park bool) *stream.Session { return e.NewSession(stream.Options{ParkUnsafe: park}) }, func(string, stream.Update) {}, func(string) {})
	release := make(chan struct{})
	r.newJournal = func(name string, park bool) (eventJournal, error) {
		j, err := b.CreateSessionJournal(name, park)
		if err != nil {
			return nil, err
		}
		return heldDrop{j, release}, nil
	}
	if _, err := r.create("x", false); err != nil {
		t.Fatal(err)
	}
	removed := make(chan error, 1)
	go func() { removed <- r.remove("x") }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := r.get("x"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the removal never took x out of the registry")
		}
	}
	type created struct {
		h   *sessionHandle
		err error
	}
	recreated := make(chan created, 1)
	go func() {
		h, err := r.create("x", false)
		recreated <- created{h, err}
	}()
	select {
	case c := <-recreated:
		t.Fatalf("create returned (%v) before the old life's drop was logged", c.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-removed; err != nil {
		t.Fatal(err)
	}
	c := <-recreated
	if c.err != nil {
		t.Fatal(c.err)
	}
	ev := stream.Event{Kind: stream.JoinEvent, Query: workload.Arrivals(workload.Steady, 1, rows, 3)[0].Query}
	if up, err := c.h.post(context.Background(), ev); err != nil || !up.Admitted && !up.Parked {
		t.Fatalf("event on the new life: %+v, %v", up, err)
	}
	r.close()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	rs, err := re.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Name != "x" || len(rs[0].Events) != 1 {
		t.Fatalf("recovered %+v, want x with its one event", rs)
	}
}

// TestCancelledWaiterIsNeverApplied: an event whose context ends while
// another event holds the session's turn comes back with the context's
// error, and that is its whole fate — it is applied neither in memory
// nor in the log.
func TestCancelledWaiterIsNeverApplied(t *testing.T) {
	const rows = 32
	dir := t.TempDir()
	b, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyAll(b, workload.UserTableMutations(rows)); err != nil {
		t.Fatal(err)
	}
	// The first store query stalls, holding the turn of the event that
	// issued it.
	inj := fault.NewInjector(1, fault.Rule{Op: fault.OpQuery, Count: 1, Fault: fault.Fault{Delay: 200 * time.Millisecond}})
	e := engine.New(fault.NewStore(b, inj), engine.Options{})
	r := newRegistry(func(park bool) *stream.Session { return e.NewSession(stream.Options{ParkUnsafe: park}) }, func(string, stream.Update) {}, func(string) {})
	r.newJournal = func(name string, park bool) (eventJournal, error) { return b.CreateSessionJournal(name, park) }
	h, err := r.create("x", false)
	if err != nil {
		t.Fatal(err)
	}
	join := func(cluster int) stream.Event {
		return stream.Event{Kind: stream.JoinEvent, Query: workload.ChainQuery(cluster, 0, rows)}
	}
	held := make(chan error, 1)
	go func() {
		_, err := h.post(context.Background(), join(0))
		held <- err
	}()
	for ops, _ := inj.Stats(); ops == 0; ops, _ = inj.Stats() {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err = h.post(ctx, join(1))
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter: %v, want context.DeadlineExceeded", err)
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	r.close()
	snap, err := h.sess.Status(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Queries) != 1 || snap.Queries[0].ID != workload.ChainQuery(0, 0, rows).ID || snap.Parked != 0 {
		t.Fatalf("session holds %d queries (%d parked), want only the held event's", len(snap.Queries), snap.Parked)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	rs, err := re.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || len(rs[0].Events) != 1 {
		t.Fatalf("recovered %+v, want x with the held event alone", rs)
	}
}

// TestSessionsOwnNoGoroutine: a session is a turn, not a goroutine, so
// creating many adds none.
func TestSessionsOwnNoGoroutine(t *testing.T) {
	e := engine.New(workload.NewStore(1, 8, 0), engine.Options{})
	r := newRegistry(func(park bool) *stream.Session { return e.NewSession(stream.Options{ParkUnsafe: park}) }, func(string, stream.Update) {}, func(string) {})
	defer r.close()
	before := runtime.NumGoroutine()
	for i := 0; i < 64; i++ {
		if _, err := r.create("", false); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("64 sessions took %d goroutines from %d", after-before, before)
	}
}

// TestUnreadPipelineHoldsBoundedGoroutines: a binary client that
// pipelines 50,000 frames and reads no reply holds at most maxInflight
// request goroutines on the server; past that the server stops reading
// and the client's own writes stall in TCP backpressure.
func TestUnreadPipelineHoldsBoundedGoroutines(t *testing.T) {
	srv, err := New(engine.New(workload.NewStore(1, 8, 0), engine.Options{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln)
	defer srv.Close()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// A locked receive buffer, so the kernel cannot grow it to absorb
	// the replies this client never reads.
	if err := raw.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		w := bufio.NewWriter(raw)
		w.WriteString(wire.Magic)
		for id := uint64(1); id <= 50_000; id++ {
			f, _ := wire.EncodeFrame(nil, wire.Header{Kind: wire.KindHealth, ID: id}, nil)
			if _, err := w.Write(f); err != nil {
				return
			}
		}
		w.Flush()
	}()
	peak := 0
	var dump []byte
	for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		var n int
		dump, n = parkedRequests(dump)
		peak = max(peak, n)
	}
	raw.Close()
	<-wrote
	if peak == 0 {
		t.Fatal("no parked request goroutine seen: the stack dump no longer names the request path")
	}
	if peak > maxInflight {
		t.Fatalf("one connection that reads nothing parked %d request goroutines, want at most %d", peak, maxInflight)
	}
}

// parkedRequests counts, in one stop-the-world dump of every stack,
// the goroutines parked in the server's binary request path: started by
// serveWire or refuse, and blocked, neither running nor runnable. Each
// holds one of its connection's slots — one that has given its slot
// back only returns. It reuses and returns buf. runtime.NumGoroutine is
// no measure of this: it reads the scheduler's free lists without
// stopping the world, and while goroutines start and exit by the
// thousand it can count a batch of up to 32 dead ones as live.
func parkedRequests(buf []byte) ([]byte, int) {
	for {
		buf = buf[:cap(buf)]
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf)+1<<20)
	}
	parked := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		serving := strings.Contains(g, "created by entangled/internal/server.(*op[...]).serveWire") ||
			strings.Contains(g, "created by entangled/internal/server.(*wireConn).refuse")
		status, _, _ := strings.Cut(g[strings.Index(g, "[")+1:], "]")
		if serving && !strings.HasPrefix(status, "running") && !strings.HasPrefix(status, "runnable") {
			parked++
		}
	}
	return buf, parked
}
