package server

import "entangled/internal/wire"

// OpInfo is one operation-table entry as the cross-codec tests see it:
// Kind 0 marks an HTTP-only operation, an empty Pattern a binary-only
// one.
type OpInfo struct {
	Name    string
	Kind    wire.Kind
	Pattern string
}

// Operations lists the operation table.
func Operations() []OpInfo {
	out := make([]OpInfo, len(ops))
	for i, o := range ops {
		out[i].Name, out[i].Kind, out[i].Pattern = o.route()
	}
	return out
}

// TenantKeyed reports how many entries the two maps keyed by resolved
// tenant outside the controller hold: the batcher's queues and the
// share histograms.
func (s *Server) TenantKeyed() (queues, shares int) {
	s.batch.mu.Lock()
	queues = len(s.batch.queues)
	s.batch.mu.Unlock()
	s.met.shareMu.Lock()
	defer s.met.shareMu.Unlock()
	return queues, len(s.met.shares)
}
