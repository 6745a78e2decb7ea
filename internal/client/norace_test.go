//go:build !race

package client

import (
	"context"
	"io"
	"net"
	"testing"
)

// TestLiveConnectionAllocatesNothing: once a connection is up, taking
// it for a call allocates nothing.
func TestLiveConnectionAllocatesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	bt := newBinaryTransport(ln.Addr().String(), "")
	defer bt.close()
	ctx := context.Background()
	if _, err := bt.live(ctx); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { bt.live(ctx) }); n != 0 {
		t.Fatalf("live on an established connection: %v allocations, want 0", n)
	}
}
