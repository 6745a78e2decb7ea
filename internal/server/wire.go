package server

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"entangled/internal/api"
	"entangled/internal/stream"
	"entangled/internal/wire"
)

// maxPendingPush bounds the undelivered-notification backlog one
// session keeps while no subscriber is connected; past it the oldest
// notification drops. A reconnecting client re-syncs from session
// status anyway — the backlog is a convenience window, not a journal.
const maxPendingPush = 1024

// writeTimeout bounds one frame write to a binary connection, so a peer
// that stops reading cannot hold a session's turn through a push: the
// connection closes and the push falls back to the hub's backlog.
const writeTimeout = 5 * time.Second

// handshakeTimeout bounds how long a new binary connection may take to
// send the protocol's magic; until then it holds a goroutine and no read
// buffer (serveWireConn reads the magic straight from the socket). The
// magic clears the deadline: an established connection may sit idle.
const handshakeTimeout = 10 * time.Second

// maxInflight bounds the requests one binary connection may have
// unanswered. At the bound the read loop stops reading, so a client that
// pipelines without reading its replies stalls its own connection
// through TCP backpressure instead of holding a server goroutine per
// frame. It is above every pipelining depth this module's clients use.
const maxInflight = 256

// pushHub routes parked-arrival-admitted notifications to the binary
// connections subscribed to each session. A notification is delivered
// to every live subscriber; with none connected it is buffered so a
// client that reconnects and re-subscribes still gets it exactly once.
type pushHub struct {
	mu      sync.Mutex
	subs    map[string]map[*wireConn]struct{}
	pending map[string][]wire.Push
}

func newPushHub() *pushHub {
	return &pushHub{
		subs:    map[string]map[*wireConn]struct{}{},
		pending: map[string][]wire.Push{},
	}
}

// admitted is the registry's notify hook: each parked arrival the
// update's retry pass admitted becomes one push. Called holding the
// session's turn, so ordering follows the session's event order.
func (p *pushHub) admitted(name string, up stream.Update) {
	for _, id := range up.AdmittedParked {
		p.deliver(wire.Push{Session: name, QueryID: id, Seq: up.Seq})
	}
}

// deliver sends one push to every live subscriber, or buffers it when
// none is connected (or every write failed): a push is either written
// to at least one connection or kept pending, never both, never
// dropped short of the backlog cap.
func (p *pushHub) deliver(ps wire.Push) {
	p.mu.Lock()
	conns := make([]*wireConn, 0, len(p.subs[ps.Session]))
	for wc := range p.subs[ps.Session] {
		conns = append(conns, wc)
	}
	if len(conns) == 0 {
		p.buffer(ps)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	delivered := 0
	for _, wc := range conns {
		if wc.sendPush(ps) == nil {
			delivered++
		}
	}
	if delivered == 0 {
		p.mu.Lock()
		p.buffer(ps)
		p.mu.Unlock()
	}
}

// buffer queues an undeliverable push; callers hold p.mu.
func (p *pushHub) buffer(ps wire.Push) {
	q := append(p.pending[ps.Session], ps)
	if len(q) > maxPendingPush {
		q = q[len(q)-maxPendingPush:]
	}
	p.pending[ps.Session] = q
}

// subscribe registers the connection for one session's pushes and
// flushes the pending backlog to it. A backlog write failing re-queues
// the unsent remainder (the connection is dying; its unsubscribe
// races, so re-buffering keeps the exactly-once promise for the next
// subscriber).
func (p *pushHub) subscribe(wc *wireConn, name string) {
	p.mu.Lock()
	set := p.subs[name]
	if set == nil {
		set = map[*wireConn]struct{}{}
		p.subs[name] = set
	}
	set[wc] = struct{}{}
	backlog := p.pending[name]
	delete(p.pending, name)
	p.mu.Unlock()
	for i, ps := range backlog {
		if wc.sendPush(ps) != nil {
			p.mu.Lock()
			p.pending[name] = append(backlog[i:], p.pending[name]...)
			p.mu.Unlock()
			return
		}
	}
}

// unsubscribe removes a dying connection from every session's set.
func (p *pushHub) unsubscribe(wc *wireConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, set := range p.subs {
		delete(set, wc)
		if len(set) == 0 {
			delete(p.subs, name)
		}
	}
}

// dropSession forgets a removed/evicted session's subscribers and
// backlog.
func (p *pushHub) dropSession(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.subs, name)
	delete(p.pending, name)
}

// wireConn is the server side of one binary-protocol connection:
// requests dispatch concurrently (pipelining), up to maxInflight at a
// time, and replies and pushes serialize through the write mutex.
type wireConn struct {
	c        net.Conn
	timeout  time.Duration // bounds each frame write (writeTimeout)
	wmu      sync.Mutex
	inflight sync.WaitGroup
	slots    chan struct{} // one token per unanswered request
}

// begin reserves an in-flight slot for a request about to run off the
// read loop, blocking the loop while maxInflight are unanswered.
func (wc *wireConn) begin() {
	wc.slots <- struct{}{}
	wc.inflight.Add(1)
}

// end releases the slot begin took.
func (wc *wireConn) end() {
	wc.inflight.Done()
	<-wc.slots
}

// send encodes a frame into a pooled buffer and writes it from there. A
// write that fails, its deadline included, closes the connection: the
// frame may be torn, so the stream is past saving.
func (wc *wireConn) send(h wire.Header, put func(*wire.Enc)) error {
	buf := wire.GetBuf()
	f, err := wire.EncodeFrame(*buf, h, put)
	wc.wmu.Lock()
	if err == nil {
		err = wc.c.SetWriteDeadline(time.Now().Add(wc.timeout))
	}
	if err == nil {
		_, err = wc.c.Write(f)
	}
	if err != nil {
		wc.c.Close()
	}
	wc.wmu.Unlock()
	*buf = f
	wire.PutBuf(buf)
	return err
}

// sendPush delivers one unsolicited notification.
func (wc *wireConn) sendPush(p wire.Push) error {
	return wc.send(wire.Header{Kind: wire.KindPush, ID: 0}, p.Encode)
}

// replyErr answers a request with the same error the HTTP envelope
// would carry for the failure.
func (wc *wireConn) replyErr(id uint64, err error) {
	wc.send(wire.Header{Kind: wire.KindReply, ID: id}, func(e *wire.Enc) {
		wire.PutReplyErr(e, api.From(err))
	})
}

// refuse answers, off the read loop, a request that never reached its
// operation.
func (wc *wireConn) refuse(id uint64, err error) {
	wc.begin()
	go func() {
		defer wc.end()
		wc.replyErr(id, err)
	}()
}

// badBody refuses a request whose body failed to decode, with the same
// message the HTTP adapter uses.
func (wc *wireConn) badBody(id uint64, err error) {
	wc.refuse(id, badRequest(http.StatusBadRequest, "decoding body: %v", err))
}

// ServeWire accepts binary-protocol connections on l until the
// listener closes. The listener joins the server's drain: Close stops
// it, lets in-flight requests finish, then closes the connections, and
// ServeWire returns nil, even when Close ran before it started (then it
// closes l itself). Run it like http.Serve:
//
//	ln, _ := net.Listen("tcp", addr)
//	go srv.ServeWire(ln)
func (s *Server) ServeWire(l net.Listener) error {
	s.wireMu.Lock()
	if s.draining() {
		s.wireMu.Unlock()
		l.Close()
		return nil
	}
	s.wireLs[l] = struct{}{}
	s.wireMu.Unlock()
	defer func() {
		s.wireMu.Lock()
		delete(s.wireLs, l)
		s.wireMu.Unlock()
		l.Close()
	}()
	for {
		c, err := l.Accept()
		if err != nil {
			if s.draining() {
				return nil
			}
			return err
		}
		go s.serveWireConn(c)
	}
}

// serveWireConn runs one connection: verify the preamble, then decode
// frames and dispatch until the peer goes away or a framing error
// leaves the stream unsynchronized (nothing to salvage — drop the
// connection; a pipelined client redials).
func (s *Server) serveWireConn(c net.Conn) {
	wc := &wireConn{c: c, timeout: s.writeTimeout, slots: make(chan struct{}, maxInflight)}
	s.wireMu.Lock()
	if s.draining() {
		s.wireMu.Unlock()
		c.Close()
		return
	}
	s.wireConns[wc] = struct{}{}
	s.wireMu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		s.push.unsubscribe(wc)
		s.wireMu.Lock()
		delete(s.wireConns, wc)
		s.wireMu.Unlock()
		cancel()
		wc.inflight.Wait()
		c.Close()
	}()

	var magic [len(wire.Magic)]byte
	c.SetReadDeadline(time.Now().Add(s.handshakeTimeout))
	if _, err := io.ReadFull(c, magic[:]); err != nil || string(magic[:]) != wire.Magic {
		return
	}
	c.SetReadDeadline(time.Time{})
	br := bufio.NewReader(c)
	for {
		payload, p, err := wire.ReadPooled(br)
		if err != nil {
			return
		}
		d := wire.NewDec(payload)
		h := wire.GetHeader(d)
		// Every request decodes before dispatch returns: its frame is done.
		ok := d.Err() == nil && h.ID != 0 && s.dispatch(ctx, wc, h, d, false)
		wire.PutBuf(p)
		if !ok {
			return // a header that does not decode leaves the stream garbage
		}
	}
}

// dispatch hands one request frame to its operation's binary adapter.
// Only the two envelopes have code of their own: each unwraps and
// re-enters the table, KindTenant with the identity on the context,
// KindForward with forwarded=true. An unknown kind, or an envelope
// where the protocol forbids one — a forward to a node outside a
// cluster among them — kills the connection (protocol error, not a
// request error).
func (s *Server) dispatch(ctx context.Context, wc *wireConn, h wire.Header, d *wire.Dec, forwarded bool) bool {
	switch h.Kind {
	case wire.KindTenant:
		if forwarded {
			// Forwards never carry tenant envelopes: admission was decided
			// (and is accounted) at the edge node, so a tenant frame inside
			// a forward is a protocol violation.
			return false
		}
		te := wire.DecodeTenantReq(d)
		if err := d.Finish(); err != nil {
			wc.badBody(h.ID, err)
			return true
		}
		if te.Kind == wire.KindTenant || te.Kind == wire.KindForward {
			// The envelope must be outermost and must not smuggle a
			// forward past the edge gate.
			return false
		}
		// Re-dispatch the wrapped request under the outer frame's id with
		// the tenant identity on the context — the exact analogue of the
		// HTTP X-Tenant middleware. The inner body decodes synchronously
		// here (it aliases the frame's buffer, pooled once dispatch returns).
		ctx, err := withTenant(ctx, te.Tenant)
		if err != nil {
			wc.refuse(h.ID, err)
			return true
		}
		return s.dispatch(ctx, wc, wire.Header{Kind: te.Kind, ID: h.ID}, wire.NewDec(te.Body), false)

	case wire.KindForward:
		if forwarded || s.opts.Cluster == nil {
			// A forward inside a forward breaks terminality, and a
			// standalone node has no peer to take one from: served, it
			// would skip admission and billing.
			return false
		}
		fwd := wire.DecodeForward(d)
		if err := d.Finish(); err != nil {
			wc.badBody(h.ID, err)
			return true
		}
		if fwd.Hops != 1 {
			return false // the terminal-forward invariant is checkable; enforce it
		}
		s.opts.Cluster.ReceivedForward()
		// Re-dispatch the wrapped request under the outer frame's id:
		// the inner body decodes synchronously here (it aliases the
		// frame's buffer, pooled once dispatch returns), and the reply the
		// inner request produces IS the forward's reply.
		return s.dispatch(ctx, wc, wire.Header{Kind: fwd.Kind, ID: h.ID}, wire.NewDec(fwd.Body), true)
	}
	if int(h.Kind) >= len(wireOps) || wireOps[h.Kind] == nil {
		return false
	}
	wireOps[h.Kind].serveWire(s, ctx, wc, h.ID, d, forwarded)
	return true
}
