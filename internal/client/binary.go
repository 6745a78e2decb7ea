package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"entangled/internal/wire"
)

// errClientClosed reports a call on a deliberately Closed client; it
// is not retryable (the caller asked for the shutdown).
var errClientClosed = errors.New("client: closed")

// binaryTransport speaks the binary wire protocol over one persistent
// pipelined connection. A dropped connection fails its in-flight calls
// with a retryable error and the next call (or the subscription
// keeper) redials; active subscriptions re-issue themselves on every
// fresh connection, so the server's pending-push backlog flushes to
// the reconnected client.
type binaryTransport struct {
	addr string
	// tenant, when non-empty, wraps every call in a wire.KindTenant
	// envelope (the binary analogue of the HTTP X-Tenant header).
	tenant string

	mu      sync.Mutex
	conn    *wire.ClientConn
	subs    map[int]*subscription
	nextSub int
	keeper  bool
	closed  bool
}

type subscription struct {
	session string
	fn      func(Notification)
}

func newBinaryTransport(addr, tenant string) *binaryTransport {
	return &binaryTransport{addr: addr, tenant: tenant, subs: map[int]*subscription{}}
}

// dial opens the TCP connection under a binary transport; tests
// substitute one that never completes.
var dial = func(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// live returns the current connection, dialing a fresh one if the last
// one died. The dial runs outside the lock and ends with ctx, so a peer
// that never answers stalls only the callers that need it; when dials
// race, the first installed wins and the others close their own. The
// winner re-issues every active subscription on its connection.
func (t *binaryTransport) live(ctx context.Context) (*wire.ClientConn, error) {
	t.mu.Lock()
	cc, err := t.current()
	t.mu.Unlock()
	if cc != nil || err != nil {
		return cc, err
	}
	nc, err := dial(ctx, t.addr)
	if err != nil {
		return nil, fmt.Errorf("client: dialing %s: %w", t.addr, err)
	}
	fresh := wire.NewClientConn(nc, t.dispatchPush)
	t.mu.Lock()
	if cc, err = t.current(); cc != nil || err != nil {
		t.mu.Unlock()
		fresh.Close()
		return cc, err
	}
	t.conn = fresh
	sessions := map[string]struct{}{}
	for _, s := range t.subs {
		sessions[s.session] = struct{}{}
	}
	t.mu.Unlock()
	for name := range sessions {
		// Re-subscribing is idempotent server-side; a failure here means
		// the new connection is already dying and the keeper will redial.
		go t.send(context.Background(), fresh, wire.Subscribe.Bind(wire.SessionReq{Session: name}))
	}
	return fresh, nil
}

// current returns the live connection, nil when there is none; the
// caller holds the lock.
func (t *binaryTransport) current() (*wire.ClientConn, error) {
	if t.closed {
		return nil, errClientClosed
	}
	if cc := t.conn; cc != nil {
		select {
		case <-cc.Done():
			t.conn = nil
		default:
			return cc, nil
		}
	}
	return nil, nil
}

// dispatchPush fans a push out to the matching subscriptions. It runs
// on the connection's read loop, per the Subscribe contract.
func (t *binaryTransport) dispatchPush(p wire.Push) {
	t.mu.Lock()
	var fns []func(Notification)
	for _, s := range t.subs {
		if s.session == p.Session {
			fns = append(fns, s.fn)
		}
	}
	t.mu.Unlock()
	for _, fn := range fns {
		fn(p)
	}
}

// keepAlive holds a connection open while want (called under the
// transport lock) reports it is still needed: while subscriptions are
// active on a client transport, and for the connection's whole
// lifetime on a cluster peer conn (DialPeer). It exits when want goes
// false or the transport closes.
func (t *binaryTransport) keepAlive(want func() bool) {
	for failures := 0; ; {
		t.mu.Lock()
		if t.closed || !want() {
			t.keeper = false
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
		cc, err := t.live(context.Background())
		if err != nil {
			if errors.Is(err, errClientClosed) {
				continue // loop re-checks under the lock and exits
			}
			time.Sleep(backoff(failures, nil))
			failures++
			continue
		}
		failures = 0
		<-cc.Done()
	}
}

// call runs one request on the live connection, dialing one if the
// last died.
func (t *binaryTransport) call(ctx context.Context, c wire.Call) error {
	r := c.Route()
	if r.Kind == 0 {
		return fmt.Errorf("client: the %s endpoint is served over HTTP only", r.Name)
	}
	cc, err := t.live(ctx)
	if err != nil {
		return err
	}
	return t.send(ctx, cc, c)
}

// send is the one way a request leaves this transport — a caller's, or
// a subscription re-issued on a fresh connection: inside the tenant
// envelope when the client has an identity, the reply decoded by the
// call itself. A service error is the *Error the server answered, the
// same one the HTTP transport returns; transport errors stay as-is
// (IsRetryable classifies them) and name the operation that failed —
// never the tenant envelope it travelled in.
func (t *binaryTransport) send(ctx context.Context, cc *wire.ClientConn, c wire.Call) error {
	kind := c.Route().Kind
	outer, enc := kind, c.Encode
	if t.tenant != "" {
		outer = wire.KindTenant
		enc = func(e *wire.Enc) {
			wire.PutTenantPrefix(e, t.tenant, kind)
			c.Encode(e)
		}
	}
	_, rep, err := cc.Call(ctx, outer, enc)
	if err != nil {
		var e *Error
		if errors.As(err, &e) {
			return e
		}
		return fmt.Errorf("client: %v call: %w", kind, err)
	}
	if err := c.DecodeReply(rep); err != nil {
		return fmt.Errorf("client: decoding %v reply: %w", kind, err)
	}
	return nil
}

func (t *binaryTransport) subscribe(ctx context.Context, session string, fn func(Notification)) (func(), error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errClientClosed
	}
	t.nextSub++
	token := t.nextSub
	t.subs[token] = &subscription{session: session, fn: fn}
	if !t.keeper {
		t.keeper = true
		go t.keepAlive(func() bool { return len(t.subs) > 0 })
	}
	t.mu.Unlock()
	stop := func() {
		t.mu.Lock()
		delete(t.subs, token)
		t.mu.Unlock()
	}
	// Issue the subscribe on the live connection now, so an unknown
	// session surfaces as a typed error instead of a silent no-op (the
	// keeper re-issues it after any later reconnect).
	if _, err := invoke(ctx, t, wire.Subscribe, wire.SessionReq{Session: session}); err != nil {
		stop()
		return nil, err
	}
	return stop, nil
}

func (t *binaryTransport) close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	cc := t.conn
	t.conn = nil
	t.mu.Unlock()
	if cc != nil {
		cc.Close()
	}
	return nil
}
