package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"entangled/internal/engine"
	"entangled/internal/wire"
	"entangled/internal/workload"
)

// countListener fails every Accept with err and counts its Closes.
type countListener struct {
	err    error
	closes atomic.Int32
}

func (l *countListener) Accept() (net.Conn, error) { return nil, l.err }
func (l *countListener) Close() error              { l.closes.Add(1); return nil }
func (l *countListener) Addr() net.Addr            { return &net.TCPAddr{} }

// countConn counts its Closes.
type countConn struct {
	net.Conn
	closes atomic.Int32
}

func (c *countConn) Close() error { c.closes.Add(1); return c.Conn.Close() }

func newConnServer(t *testing.T) *Server {
	s, err := New(engine.New(workload.NewStore(1, 8, 0), engine.Options{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// within runs f and fails the test if it has not returned in 5 s.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestServeAfterCloseClosesAndReturns: after Close, ServeWire closes its
// listener and returns nil, and a connection is closed unserved — each
// as often as it is asked, so neither keeps the server's lock.
func TestServeAfterCloseClosesAndReturns(t *testing.T) {
	s := newConnServer(t)
	s.Close()
	for i := range 2 {
		l := &countListener{err: errors.New("accepted after Close")}
		within(t, "ServeWire after Close", func() {
			if err := s.ServeWire(l); err != nil || l.closes.Load() != 1 {
				t.Errorf("ServeWire %d after Close: %v, listener closed %d times; want nil, once", i, err, l.closes.Load())
			}
		})
		nc, peer := net.Pipe()
		c := &countConn{Conn: nc}
		within(t, "a connection after Close", func() { s.serveWireConn(c) })
		peer.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := peer.Read(make([]byte, 1)); err != io.EOF || c.closes.Load() != 1 {
			t.Fatalf("connection %d after Close: read %v, closed %d times; want EOF, once", i, err, c.closes.Load())
		}
	}
}

// TestServeWireForgetsItsListener: a listener that fails outside a
// drain is closed once when ServeWire returns its error, and Close does
// not close it again.
func TestServeWireForgetsItsListener(t *testing.T) {
	s := newConnServer(t)
	l := &countListener{err: errors.New("accept failed")}
	if err := s.ServeWire(l); err != l.err || l.closes.Load() != 1 {
		t.Fatalf("ServeWire: %v, listener closed %d times; want its error, once", err, l.closes.Load())
	}
	s.Close()
	if n := l.closes.Load(); n != 1 {
		t.Fatalf("listener closed %d times after Close, want once", n)
	}
}

// TestEndedConnectionLeavesNoTrace: a subscribed connection that ends
// leaves no subscription and no entry for Close to close again.
func TestEndedConnectionLeavesNoTrace(t *testing.T) {
	s := newConnServer(t)
	defer s.Close()
	if _, err := s.reg.create("s", false); err != nil {
		t.Fatal(err)
	}
	nc, peer := net.Pipe()
	c := &countConn{Conn: nc}
	done := make(chan struct{})
	go func() { s.serveWireConn(c); close(done) }()
	cc := wire.NewClientConn(peer, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := cc.Call(ctx, wire.KindSubscribe, wire.Subscribe.Bind(wire.SessionReq{Session: "s"}).Encode); err != nil {
		t.Fatal(err)
	}
	subscribed := func() int {
		s.push.mu.Lock()
		defer s.push.mu.Unlock()
		return len(s.push.subs["s"])
	}
	for deadline := time.Now().Add(5 * time.Second); subscribed() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the subscribe never registered")
		}
	}
	cc.Close()
	within(t, "the ended connection", func() { <-done })
	s.wireMu.Lock()
	conns := len(s.wireConns)
	s.wireMu.Unlock()
	if n := subscribed(); n != 0 || conns != 0 {
		t.Fatalf("after the connection ended: %d subscribers, %d connections; want none", n, conns)
	}
	s.Close()
	if n := c.closes.Load(); n != 1 {
		t.Fatalf("connection closed %d times, want once", n)
	}
}

// TestHalfClosedConnectionGetsItsReplies: a client that sends its
// requests and then closes its side for writing still reads every
// reply before the server closes the connection.
func TestHalfClosedConnectionGetsItsReplies(t *testing.T) {
	s := newConnServer(t)
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeWire(ln)
	const requests = 32
	out := []byte(wire.Magic)
	for id := range uint64(requests) {
		f, _ := wire.EncodeFrame(nil, wire.Header{Kind: wire.KindHealth, ID: id + 1}, nil)
		out = append(out, f...)
	}
	for round := range 5 {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := nc.Write(out); err != nil {
			t.Fatal(err)
		}
		nc.(*net.TCPConn).CloseWrite()
		br := bufio.NewReader(nc)
		replies := 0
		for {
			if _, err := wire.ReadFrame(br, nil); err != nil {
				break
			}
			replies++
		}
		nc.Close()
		if replies != requests {
			t.Fatalf("round %d: %d replies to %d requests", round, replies, requests)
		}
	}
}
