package fault

import (
	"net"
	"time"
)

// NewListener wraps a listener so every accepted connection goes
// through the injector. An OpAccept fault closes the fresh connection
// immediately (a reset at accept) instead of failing Accept — an
// Accept error would kill the server's accept loop, which is a
// different failure than the flaky network this models.
func NewListener(inner net.Listener, inj *Injector) net.Listener {
	return &faultListener{Listener: inner, inj: inj}
}

type faultListener struct {
	net.Listener
	inj *Injector
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	addr := c.RemoteAddr().String()
	if f := l.inj.Decide(OpAccept, addr); f.Err != nil {
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		c.Close()
	}
	return &Conn{Conn: c, name: addr, inj: l.inj}, nil
}

// Conn injects network misbehavior into one connection: stalls
// (Delay), drops and resets (Err closes the conn and fails the call),
// torn writes (a frame prefix reaches the peer before the cut), and
// silent byte corruption (Corrupt flips one byte and delivers the rest
// intact — TCP checksums won't catch it; the protocol's CRC must).
type Conn struct {
	net.Conn
	name string
	inj  *Injector
}

func (c *Conn) Read(p []byte) (int, error) {
	f := c.inj.Decide(OpConnRead, c.name)
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Err != nil {
		c.Conn.Close()
		return 0, injected(Fault{Err: f.Err}, OpConnRead, c.name)
	}
	n, err := c.Conn.Read(p)
	if f.Corrupt && n > 0 {
		p[n-1] ^= 0x80
	}
	return n, err
}

func (c *Conn) Write(p []byte) (int, error) {
	f := c.inj.Decide(OpConnWrite, c.name)
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	switch {
	case f.Err != nil && f.Torn > 0:
		n := f.Torn
		if n > len(p) {
			n = len(p)
		}
		written, _ := c.Conn.Write(p[:n])
		c.Conn.Close()
		return written, injected(Fault{Err: f.Err}, OpConnWrite, c.name)
	case f.Err != nil:
		c.Conn.Close()
		return 0, injected(Fault{Err: f.Err}, OpConnWrite, c.name)
	case f.Corrupt && len(p) > 0:
		// Corrupt a copy: the caller's buffer is reused for the next
		// frame and must not carry the flipped byte forward.
		q := make([]byte, len(p))
		copy(q, p)
		q[len(q)/2] ^= 0x01
		return c.Conn.Write(q)
	}
	return c.Conn.Write(p)
}
