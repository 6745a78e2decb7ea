package client

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"entangled/internal/api"
	"entangled/internal/wire"
)

// TestPendingPeerDialBlocksNothing: a peer host that drops SYNs leaves
// a dial pending for the OS connect timeout. Connected — which
// /healthz, /v1/cluster and /metrics read for every peer — must answer
// at once while the keeper's dial is pending, and a forward must give
// up when its own context ends, with a fate-known peer_unavailable:
// nothing was sent.
func TestPendingPeerDialBlocksNothing(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	saved := dial
	dial = func(ctx context.Context, _ string) (net.Conn, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return nil, errors.New("dial released")
		}
	}
	p := DialPeer("192.0.2.1:7")
	t.Cleanup(func() {
		close(release)
		p.Close()
		dial = saved
	})
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the keeper never dialed")
	}

	connected := make(chan bool, 1)
	go func() { connected <- p.Connected() }()
	select {
	case up := <-connected:
		if up {
			t.Fatal("Connected() = true with no connection")
		}
	case <-time.After(time.Second):
		t.Fatal("Connected() waited on a pending dial")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, _, err := p.Call(ctx, wire.KindHealth, func(*wire.Enc) {})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, api.ErrPeerUnavailable) {
			t.Fatalf("Call behind a pending dial: %v, want one wrapping api.ErrPeerUnavailable", err)
		}
		if took := time.Since(start); took > 500*time.Millisecond {
			t.Fatalf("Call with a 50ms deadline returned after %v", took)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Call outlived its 50ms deadline behind a pending dial")
	}
}
