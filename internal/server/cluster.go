package server

import (
	"context"

	"entangled/internal/api"
)

// remoteOwner reports the peer node owning a session name, ok=false
// when this node serves it itself (standalone server, or the ring says
// the session is ours).
func (s *Server) remoteOwner(session string) (string, bool) {
	c := s.opts.Cluster
	if c == nil {
		return "", false
	}
	owner := c.Owner(session)
	if owner == c.Self() {
		return "", false
	}
	return owner, true
}

// serveBatchRouted is the cluster-aware batch path: a standalone server
// (or a forwarded sub-batch — forwards are terminal, a receiver never
// re-scatters) serves everything locally; a cluster node scatter-gathers
// the batch across owners with its own slice going through serveBatch.
//
// Admission gates here, at the edge: the node that received the batch
// from a client decides each request against the tenant's policy,
// scatter-gathers only the admitted subset (forwarded sub-batches are
// pre-admitted and never re-gated), and settles the exact DBQueries
// charge when the gathered responses come back — so a tenant's spend
// accrues on the nodes it talks to, not wherever the ring placed its
// data.
func (s *Server) serveBatchRouted(ctx context.Context, reqs []api.Request, forwarded bool) []api.Response {
	c := s.opts.Cluster
	serve := func(reqs []api.Request) []api.Response {
		if c == nil || forwarded {
			return s.serveBatch(ctx, reqs)
		}
		return c.ServeBatch(ctx, reqs, s.serveBatch)
	}
	if s.adm == nil || forwarded {
		return serve(reqs)
	}
	ten := s.tenantOf(ctx)
	out := make([]api.Response, len(reqs))
	admitted := make([]api.Request, 0, len(reqs))
	idx := make([]int, 0, len(reqs))
	for i, rq := range reqs {
		if err := s.adm.Decide(ten); err != nil {
			// Inline, like the other per-request rejections: one throttled
			// tenant in a mixed batch must not fail its batchmates.
			s.met.coordRequests.Add(1)
			s.met.coordRejected.Add(1)
			out[i] = api.Response{ID: rq.ID, Error: api.From(err)}
			continue
		}
		admitted = append(admitted, rq)
		idx = append(idx, i)
	}
	if len(admitted) > 0 {
		resps := serve(admitted)
		for j, i := range idx {
			out[i] = resps[j]
			var dbq int64
			if resps[j].Result != nil {
				dbq = resps[j].Result.DBQueries
			}
			s.adm.Done(ten, dbq)
		}
	}
	return out
}

// clusterStatus reports the node's membership view; a standalone server
// answers enabled=false so clients can probe for cluster mode.
func (s *Server) clusterStatus() api.ClusterStatus {
	if c := s.opts.Cluster; c != nil {
		return c.Status()
	}
	return api.ClusterStatus{}
}
