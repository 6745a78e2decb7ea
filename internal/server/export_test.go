package server

import (
	"fmt"
	"time"

	"entangled/internal/wire"
)

// OpInfo is one serving-table entry as the tests see it: the shared
// row it serves and what the serving table adds.
type OpInfo struct {
	*wire.Route
	Keyed, Local bool
	Class, Reply string
}

func (o *op[Q, R]) info() OpInfo {
	return OpInfo{Route: &o.Route, Keyed: o.Key != nil, Local: o.local,
		Class: [...]string{"unmetered", "gated", "metered"}[o.class], Reply: fmt.Sprintf("%T", *new(R))}
}

// Operations lists the serving table.
func Operations() []OpInfo {
	out := make([]OpInfo, len(ops))
	for i, o := range ops {
		out[i] = o.(interface{ info() OpInfo }).info()
	}
	return out
}

// TenantKeyed reports how many entries the one map keyed by resolved
// tenant outside the controller holds: the batcher's queues.
func (s *Server) TenantKeyed() int {
	s.batch.mu.Lock()
	defer s.batch.mu.Unlock()
	return len(s.batch.queues)
}

// EvictIdle runs one pass of the session janitor as if the clock read
// now.
func (s *Server) EvictIdle(now time.Time) { s.reg.evictIdle(now) }

// WithProbeInterval returns o with the degraded-mode probe interval
// set to d (negative: no probe loop). The loop starts in New, so the
// interval goes in through the options.
func WithProbeInterval(o Options, d time.Duration) Options {
	o.probeInterval = d
	return o
}

// SetWriteTimeout shortens the deadline of each frame write to a binary
// connection; call it before serving.
func (s *Server) SetWriteTimeout(d time.Duration) { s.writeTimeout = d }

// SetHandshakeTimeout shortens how long a new binary connection may take
// to send the magic; call it before serving.
func (s *Server) SetHandshakeTimeout(d time.Duration) { s.handshakeTimeout = d }
