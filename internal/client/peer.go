package client

import (
	"context"
	"errors"
	"fmt"

	"entangled/internal/api"
	"entangled/internal/wire"
)

// PeerConn is one persistent pipelined binary connection for
// cluster-internal forwarding: the same transport a tcp:// Client
// rides, with the subscription keeper's jittered-backoff redial
// running for the connection's whole lifetime — when a peer restarts,
// every node that forwards to it re-dials on a jittered schedule
// instead of in lockstep. It satisfies cluster.PeerConn.
type PeerConn struct {
	t *binaryTransport
}

// DialPeer opens the peer connection. The dial itself happens lazily
// (and is retried by the keeper), so DialPeer never fails — a peer
// that is down at boot connects when it comes up.
func DialPeer(addr string) *PeerConn {
	// Peers forward pre-admitted work; the connection carries no tenant
	// envelope of its own.
	t := newBinaryTransport(addr, "")
	t.mu.Lock()
	t.keeper = true
	t.mu.Unlock()
	go t.keepAlive(func() bool { return true })
	return &PeerConn{t: t}
}

// Call issues one raw frame and returns the reply, the caller's to
// release. Per the cluster.PeerConn contract, an error wrapping
// api.ErrPeerUnavailable means nothing was transmitted (no live
// connection at send time, and none dialed before ctx ended — fate
// known); any other transport error means the connection died mid-call.
func (p *PeerConn) Call(ctx context.Context, kind wire.Kind, encode func(*wire.Enc)) (status int, rep wire.Reply, err error) {
	cc, err := p.t.live(ctx)
	if err != nil {
		if errors.Is(err, errClientClosed) {
			return 0, rep, err
		}
		return 0, rep, fmt.Errorf("%w: %v", api.ErrPeerUnavailable, err)
	}
	return cc.Call(ctx, kind, encode)
}

// Connected reports whether a live connection is currently held. It
// does not dial, and a dial in progress does not delay it.
func (p *PeerConn) Connected() bool {
	p.t.mu.Lock()
	defer p.t.mu.Unlock()
	cc, _ := p.t.current()
	return cc != nil
}

// Close tears the connection down and stops the keeper.
func (p *PeerConn) Close() error { return p.t.close() }
