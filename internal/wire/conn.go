package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
)

// ErrConnClosed is the sentinel wrapped by every call that failed
// because the underlying connection died (peer closed, reset, or local
// Close). It is a transport-level condition — the request may or may
// not have executed — and clients treat it as retryable for idempotent
// operations.
var ErrConnClosed = errors.New("wire: connection closed")

// callReply resolves one in-flight pipelined request, through a
// channel buffered(1): the read loop never blocks on it.
type callReply struct {
	status int
	reply  Reply
	err    error
}

// Reply is a successful call's reply body, decoded in place: Body lies
// in its frame's pooled buffer, read no more once Release gives it back.
type Reply struct {
	Body []byte
	buf  *[]byte
}

// Release gives the reply's buffer back. The zero Reply, a failed
// call's, holds none, and a second Release gives nothing back.
func (r *Reply) Release() {
	if r.buf != nil {
		recycle(r.buf)
	}
	*r = Reply{}
}

var recycle = PutBuf // gives back what the read loop borrowed; tests count it

// ClientConn is one persistent binary-protocol connection. Calls
// pipeline: any number of goroutines may Call concurrently, frames are
// multiplexed by request id, and replies resolve out of order as the
// server finishes them — one TCP round trip carries many requests. A
// connection that dies fails every pending call with an error wrapping
// ErrConnClosed; the ClientConn is then spent (dial a fresh one).
type ClientConn struct {
	c net.Conn

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint64]chan callReply
	nextID  uint64
	closed  bool
	cause   error

	onPush func(Push) // immutable after dial
	done   chan struct{}
}

// NewClientConn wraps an established connection (the client side of the
// protocol): the magic preamble is sent and the read loop started.
func NewClientConn(nc net.Conn, onPush func(Push)) *ClientConn {
	cc := &ClientConn{
		c:       nc,
		pending: map[uint64]chan callReply{},
		onPush:  onPush,
		done:    make(chan struct{}),
	}
	// The preamble is written from the constructor, before any Call can
	// race it; a write failure here surfaces on the first Call.
	if _, err := nc.Write([]byte(Magic)); err != nil {
		cc.fail(err)
		return cc
	}
	go cc.readLoop()
	return cc
}

// Done is closed when the connection dies (any reason).
func (cc *ClientConn) Done() <-chan struct{} { return cc.done }

// Close tears the connection down; pending calls fail with
// ErrConnClosed.
func (cc *ClientConn) Close() error {
	cc.fail(nil)
	return nil
}

// fail marks the connection dead, closes it, and fails every pending
// call. Idempotent; the first cause wins.
func (cc *ClientConn) fail(cause error) {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return
	}
	cc.closed = true
	cc.cause = cause
	pending := cc.pending
	cc.pending = nil
	close(cc.done)
	cc.mu.Unlock()
	cc.c.Close()
	err := cc.closedErr()
	for _, ch := range pending {
		ch <- callReply{err: err}
	}
}

// closedErr renders the death of the connection as a typed error.
func (cc *ClientConn) closedErr() error {
	if cc.cause != nil {
		return fmt.Errorf("%w: %v", ErrConnClosed, cc.cause)
	}
	return ErrConnClosed
}

// readLoop decodes frames until the connection dies: replies resolve
// their pending call, pushes go to the onPush callback. Any read or
// decode failure kills the connection — a framing error leaves the
// stream unsynchronized, so there is nothing to salvage.
func (cc *ClientConn) readLoop() {
	br := bufio.NewReader(cc.c)
	for {
		payload, p, err := ReadPooled(br)
		if err != nil {
			cc.fail(err)
			return
		}
		d := NewDec(payload)
		switch h := GetHeader(d); h.Kind {
		case KindReply:
			cc.mu.Lock()
			ch := cc.pending[h.ID]
			delete(cc.pending, h.ID)
			cc.mu.Unlock()
			if ch == nil {
				break // reply to an abandoned (ctx-cancelled) call
			}
			r := callReply{}
			if r.status, r.err = GetReply(d); r.err == nil {
				r.reply, p = Reply{Body: d.b[d.off:], buf: p}, nil
			}
			ch <- r
		case KindPush:
			push := DecodePush(d)
			if err = d.Finish(); err == nil && cc.onPush != nil {
				cc.onPush(push)
			}
		default:
			err = &DecodeError{Reason: fmt.Sprintf("unexpected %v frame from server", h.Kind)}
		}
		if p != nil {
			recycle(p)
		}
		if err != nil {
			cc.fail(err)
			return
		}
	}
}

// Call sends one request and waits for its reply. It returns the
// HTTP-equivalent status and the reply, the caller's to decode and
// release; service failures are *api.Error, transport failures wrap
// ErrConnClosed, and neither carries a reply. Cancelling ctx abandons
// the wait (the request may still execute server-side): the read loop
// releases a late reply, the collector one it had already handed over.
func (cc *ClientConn) Call(ctx context.Context, kind Kind, encode func(*Enc)) (int, Reply, error) {
	ch := make(chan callReply, 1)
	cc.mu.Lock()
	if cc.closed {
		err := cc.closedErr()
		cc.mu.Unlock()
		return 0, Reply{}, err
	}
	cc.nextID++
	id := cc.nextID
	cc.pending[id] = ch
	cc.mu.Unlock()

	buf := GetBuf()
	f, err := EncodeFrame(*buf, Header{Kind: kind, ID: id}, encode)
	if err == nil {
		cc.wmu.Lock()
		_, err = cc.c.Write(f)
		cc.wmu.Unlock()
	}
	*buf = f
	PutBuf(buf)
	if err != nil {
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
		cc.fail(err)
		return 0, Reply{}, cc.closedErr()
	}

	select {
	case r := <-ch:
		return r.status, r.reply, r.err
	case <-ctx.Done():
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
		return 0, Reply{}, ctx.Err()
	}
}
