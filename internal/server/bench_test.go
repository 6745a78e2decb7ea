package server_test

import (
	"context"
	"net"
	"strconv"
	"testing"
	"time"

	"entangled/internal/client"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/server"
	"entangled/internal/workload"
)

// benchWireLoopback boots a loopback server speaking the binary wire
// protocol and a binary client for it.
func benchWireLoopback(b *testing.B, shards, rows int) (*client.Client, *engine.Engine) {
	b.Helper()
	store := workload.NewStore(shards, rows, 0)
	e := engine.New(store, engine.Options{})
	srv, err := server.New(e, server.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.ServeWire(ln)
	c, err := client.New("tcp://"+ln.Addr().String(), client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close(); srv.Close() })
	return c, e
}

// BenchmarkWirePush measures the push path end to end: each iteration
// parks an arrival, departs the conflicting query, and waits for the
// server-push notification announcing the admission — the reported
// ns/op covers four session events plus one push delivery.
func BenchmarkWirePush(b *testing.B) {
	c, _ := benchWireLoopback(b, 1, 64)
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, "push", true)
	if err != nil {
		b.Fatal(err)
	}
	got := make(chan client.Notification, 16)
	stop, err := sess.Subscribe(ctx, func(n client.Notification) { got <- n })
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := strconv.Itoa(i)
		// Two heads on user u<i>, then a poster that fans out to both:
		// it parks; departing one head admits it and pushes.
		if _, err := sess.Join(ctx, mk("a"+n, "u"+n)); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Join(ctx, mk("a2"+n, "u"+n)); err != nil {
			b.Fatal(err)
		}
		if up, err := sess.Join(ctx, mk("p"+n, "v"+n, "u"+n)); err != nil || !up.Parked {
			b.Fatalf("poster: %+v %v", up, err)
		}
		if _, err := sess.Leave(ctx, "a2"+n); err != nil {
			b.Fatal(err)
		}
		select {
		case pn := <-got:
			if pn.QueryID != "p"+n {
				b.Fatalf("push %+v, want p%s", pn, n)
			}
		case <-time.After(5 * time.Second):
			b.Fatal("push never arrived")
		}
		// Reset the session for the next iteration.
		if _, err := sess.Leave(ctx, "a"+n); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Leave(ctx, "p"+n); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "push/s")
}
