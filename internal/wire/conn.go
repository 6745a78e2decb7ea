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

// call is one in-flight pipelined request.
type call struct {
	reply chan callReply // buffered(1): the read loop never blocks on it
}

type callReply struct {
	status  int
	payload []byte
	err     error
}

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
	pending map[uint64]*call
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
		pending: map[uint64]*call{},
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
	for _, ca := range pending {
		ca.reply <- callReply{err: err}
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
	br := bufio.NewReaderSize(cc.c, 64<<10)
	var buf []byte
	for {
		payload, err := ReadFrame(br, buf)
		if err != nil {
			cc.fail(err)
			return
		}
		buf = payload
		d := NewDec(payload)
		h := GetHeader(d)
		switch h.Kind {
		case KindReply:
			cc.mu.Lock()
			ca := cc.pending[h.ID]
			delete(cc.pending, h.ID)
			cc.mu.Unlock()
			if ca == nil {
				continue // reply to an abandoned (ctx-cancelled) call
			}
			status, body, err := decodeReply(d)
			ca.reply <- callReply{status: status, payload: body, err: err}
		case KindPush:
			p := DecodePush(d)
			if err := d.Finish(); err != nil {
				cc.fail(err)
				return
			}
			if cc.onPush != nil {
				cc.onPush(p)
			}
		default:
			cc.fail(&DecodeError{Reason: fmt.Sprintf("unexpected %v frame from server", h.Kind)})
			return
		}
	}
}

// decodeReply splits a reply payload after the header: service errors
// come back as *api.Error, successes as the status plus the
// kind-specific body bytes (copied — the read buffer is reused).
func decodeReply(d *Dec) (int, []byte, error) {
	status, err := GetReply(d)
	if err != nil {
		return status, nil, err
	}
	rest := d.b[d.off:]
	body := make([]byte, len(rest))
	copy(body, rest)
	return status, body, nil
}

// Call sends one request and waits for its reply. body is the
// kind-specific request body (without header). It returns the
// HTTP-equivalent status and the reply's body bytes; service failures
// are *api.Error, transport failures wrap ErrConnClosed. Cancelling
// ctx abandons the wait (the request may still execute server-side; a
// late reply is discarded).
func (cc *ClientConn) Call(ctx context.Context, kind Kind, encode func(*Enc)) (int, []byte, error) {
	ca := &call{reply: make(chan callReply, 1)}
	cc.mu.Lock()
	if cc.closed {
		err := cc.closedErr()
		cc.mu.Unlock()
		return 0, nil, err
	}
	cc.nextID++
	id := cc.nextID
	cc.pending[id] = ca
	cc.mu.Unlock()

	buf := GetBuf()
	var e Enc
	e.Reset(*buf)
	PutHeader(&e, Header{Kind: kind, ID: id})
	if encode != nil {
		encode(&e)
	}
	cc.wmu.Lock()
	err := WriteFrame(cc.c, e.Bytes())
	cc.wmu.Unlock()
	*buf = e.Bytes()
	PutBuf(buf)
	if err != nil {
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
		cc.fail(err)
		return 0, nil, cc.closedErr()
	}

	select {
	case r := <-ca.reply:
		return r.status, r.payload, r.err
	case <-ctx.Done():
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
		return 0, nil, ctx.Err()
	}
}
