package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"entangled/internal/wire"
)

// pushConn is the server side of a binary connection whose peer reads
// every push into the channel it returns.
func pushConn(t *testing.T) (*wireConn, <-chan wire.Push) {
	nc, peer := net.Pipe()
	t.Cleanup(func() { nc.Close(); peer.Close() })
	got := make(chan wire.Push, 16)
	go func() {
		br := bufio.NewReader(peer)
		for {
			payload, err := wire.ReadFrame(br, nil)
			if err != nil {
				return
			}
			d := wire.NewDec(payload)
			if h := wire.GetHeader(d); h.Kind != wire.KindPush || h.ID != 0 {
				return // a push answers no request
			}
			got <- wire.DecodePush(d)
		}
	}()
	return &wireConn{c: nc, timeout: 5 * time.Second}, got
}

// deadConn is a connection whose every write fails.
func deadConn() *wireConn {
	nc, peer := net.Pipe()
	peer.Close()
	return &wireConn{c: nc, timeout: 5 * time.Second}
}

func wantPush(t *testing.T, got <-chan wire.Push, want wire.Push) {
	t.Helper()
	select {
	case p := <-got:
		if p != want {
			t.Fatalf("push %+v, want %+v", p, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("push %+v never arrived", want)
	}
}

// TestPushHubFansOutToEverySubscriber: a push reaches each connection
// subscribed to its session; one that unsubscribes leaves the others
// subscribed, and the last one leaves no set behind.
func TestPushHubFansOutToEverySubscriber(t *testing.T) {
	p := newPushHub()
	a, gotA := pushConn(t)
	b, gotB := pushConn(t)
	p.subscribe(a, "s")
	p.subscribe(b, "s")
	one := wire.Push{Session: "s", QueryID: "q1", Seq: 1}
	p.deliver(one)
	wantPush(t, gotA, one)
	wantPush(t, gotB, one)

	p.unsubscribe(a)
	two := wire.Push{Session: "s", QueryID: "q2", Seq: 2}
	p.deliver(two)
	wantPush(t, gotB, two)
	if len(p.pending) != 0 {
		t.Fatalf("a delivered push was also kept: %v", p.pending)
	}
	p.unsubscribe(b)
	if len(p.subs) != 0 {
		t.Fatalf("subscriber sets left after every connection went: %v", p.subs)
	}
}

// TestPushHubKeepsWhatNoConnectionTook: a push whose every write fails
// waits in the backlog, as one with no subscriber does; a subscriber
// whose backlog write fails puts the backlog back, and the next
// subscriber gets all of it in order. Dropping the session forgets its
// subscribers and its backlog.
func TestPushHubKeepsWhatNoConnectionTook(t *testing.T) {
	p := newPushHub()
	p.subscribe(deadConn(), "s")
	one := wire.Push{Session: "s", QueryID: "q1", Seq: 1}
	p.deliver(one)
	two := wire.Push{Session: "s", QueryID: "q2", Seq: 2}
	p.deliver(two)
	if q := p.pending["s"]; len(q) != 2 || q[0] != one || q[1] != two {
		t.Fatalf("backlog after two failed deliveries: %v", q)
	}
	p.subscribe(deadConn(), "s")
	if q := p.pending["s"]; len(q) != 2 || q[0] != one || q[1] != two {
		t.Fatalf("backlog after a failed flush: %v", q)
	}
	live, got := pushConn(t)
	p.subscribe(live, "s")
	wantPush(t, got, one)
	wantPush(t, got, two)
	if len(p.pending) != 0 {
		t.Fatalf("backlog after a flush: %v", p.pending)
	}
	p.deliver(wire.Push{Session: "gone", QueryID: "q", Seq: 1})
	p.dropSession("s")
	p.dropSession("gone")
	if len(p.subs) != 0 || len(p.pending) != 0 {
		t.Fatalf("after dropping the sessions: subscribers %v, backlog %v", p.subs, p.pending)
	}
}

// TestSendClosesOnAnOversizedFrame: a frame over wire.MaxFrame is not
// written; the send fails and closes the connection, as a failed write
// does.
func TestSendClosesOnAnOversizedFrame(t *testing.T) {
	nc, peer := net.Pipe()
	defer peer.Close()
	peer.SetDeadline(time.Now().Add(10 * time.Second))
	read := make(chan error, 1)
	go func() {
		n, err := peer.Read(make([]byte, 1))
		if n > 0 {
			err = fmt.Errorf("%d bytes", n)
		}
		read <- err
	}()
	wc := &wireConn{c: nc, timeout: time.Second}
	big := make([]byte, wire.MaxFrame)
	if err := wc.send(wire.Header{Kind: wire.KindReply, ID: 1}, func(e *wire.Enc) { e.Raw(big) }); err == nil {
		t.Fatal("an oversized frame was sent")
	}
	if err := <-read; err != io.EOF {
		t.Fatalf("the peer read %v; want the connection closed", err)
	}
}

// TestPushBacklogKeepsTheNewest: a session's backlog holds 1,024
// pushes; one more drops the oldest.
func TestPushBacklogKeepsTheNewest(t *testing.T) {
	p := newPushHub()
	for seq := 1; seq <= 1025; seq++ {
		p.deliver(wire.Push{Session: "s", QueryID: "q", Seq: seq})
	}
	if q := p.pending["s"]; len(q) != 1024 || q[0].Seq != 2 || q[1023].Seq != 1025 {
		t.Fatalf("backlog of %d, from seq %d", len(q), q[0].Seq)
	}
}
