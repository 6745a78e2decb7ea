package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"entangled/internal/api"
	"entangled/internal/eq"
	"entangled/internal/persist"
	"entangled/internal/wire"
)

// PeerConn is one persistent pipelined connection to a peer node. It
// is implemented by client.DialPeer (which reuses the client's
// jittered-backoff redial keeper); the indirection keeps this package
// importable by internal/client. Call's reply is the caller's to
// release; its errors must wrap api.ErrPeerUnavailable when nothing was
// transmitted (no live connection at send time) and surface raw
// transport errors when the connection died mid-call.
type PeerConn interface {
	Call(ctx context.Context, kind wire.Kind, encode func(*wire.Enc)) (status int, rep wire.Reply, err error)
	Connected() bool
	Close() error
}

// Options configures a Router beyond its membership.
type Options struct {
	// Placement maps relation name -> hash column, the
	// db.ShardedInstance contract lifted to the ring. Requests whose
	// bodies pin every placed relation's column to constants owned by
	// one node route there; everything else serves locally. Nil means
	// only sessions are placed.
	Placement map[string]int
	// Dial opens the persistent connection to one peer address;
	// required when the membership has more than one node. Pass
	// client.DialPeer (wrapped to the interface) outside tests.
	Dial func(addr string) PeerConn
}

// fanoutBuckets bounds the scatter fan-out histogram: index i counts
// batches that touched i+1 nodes, the last bucket absorbs the rest.
const fanoutBuckets = 8

// peerState is the Router's per-peer slot: the pooled connection and
// its forward counters.
type peerState struct {
	name     string
	conn     PeerConn
	forwards atomic.Int64
	failures atomic.Int64
}

// Router is one node's view of the cluster: the ring, one pooled
// binary connection per peer, and the forwarding/scatter metrics. It
// decides where work lives; the server decides what to do with that
// answer (serve, forward, or refuse with route_moved).
type Router struct {
	cfg       Config
	ring      *Ring
	placement map[string]int
	version   string
	peers     map[string]*peerState // by name, self excluded

	forwardsRecv atomic.Int64
	routeMoved   atomic.Int64
	scatter      atomic.Int64

	mu     sync.Mutex
	fanout [fanoutBuckets]int64
}

// New validates the membership and builds the node's router, dialing
// one persistent connection per peer (the connection keeper redials
// with jittered backoff, so peers may be down at boot).
func New(cfg Config, opts Options) (*Router, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		names[i] = n.Name
	}
	r := &Router{
		cfg:       cfg,
		ring:      NewRing(names, DefaultVNodes),
		placement: opts.Placement,
		version:   cfg.Version(),
		peers:     make(map[string]*peerState, len(cfg.Nodes)-1),
	}
	for _, n := range cfg.Nodes {
		if n.Name == cfg.Self {
			continue
		}
		if opts.Dial == nil {
			return nil, fmt.Errorf("cluster: %d-node membership needs Options.Dial", len(cfg.Nodes))
		}
		r.peers[n.Name] = &peerState{name: n.Name, conn: opts.Dial(n.Addr)}
	}
	return r, nil
}

// Close tears down every peer connection.
func (r *Router) Close() {
	for _, p := range r.peers {
		p.conn.Close()
	}
}

// Self returns this node's name.
func (r *Router) Self() string { return r.cfg.Self }

// Ring returns the (immutable) placement ring.
func (r *Router) Ring() *Ring { return r.ring }

// Version returns the membership fingerprint.
func (r *Router) Version() string { return r.version }

// Owner returns the node owning a session name.
func (r *Router) Owner(session string) string { return r.ring.Owner(session) }

// OwnsLocally reports whether this node owns the session.
func (r *Router) OwnsLocally(session string) bool { return r.ring.Owner(session) == r.cfg.Self }

// OwnerOfRequest returns the node owning a batch request, ok=false
// when the request has no single owner (serve it locally).
func (r *Router) OwnerOfRequest(qs []eq.Query) (string, bool) {
	return OwnerOfQueries(r.ring, r.placement, qs)
}

// RouteMoved records and builds the typed error a node answers instead
// of forwarding a session call it does not own: a call that already
// crossed its one hop, or a subscribe (push flows only from the owner).
// The error is route_moved, carrying the owner.
func (r *Router) RouteMoved(what, session string) error {
	r.routeMoved.Add(1)
	return &routeMovedError{what: what + " " + session, owner: r.ring.Owner(session)}
}

// routeMovedError wraps api.ErrRouteMoved and names the owning node so
// api.From carries it to the client.
type routeMovedError struct {
	what  string
	owner string
}

func (e *routeMovedError) Error() string {
	return fmt.Sprintf("cluster: route moved: %s is owned by %s", e.what, e.owner)
}

func (e *routeMovedError) Unwrap() error { return api.ErrRouteMoved }

// OwnerNode implements api.Owned.
func (e *routeMovedError) OwnerNode() string { return e.owner }

// ReceivedForward meters an inbound KindForward frame.
func (r *Router) ReceivedForward() { r.forwardsRecv.Add(1) }

// Forward sends one call to a peer inside a forward envelope, decodes
// the reply the inner request received there into the call and returns
// its HTTP-equivalent status. A service-level failure is the peer's
// *api.Error, to relay verbatim; a transport failure is typed —
// api.ErrPeerUnavailable when nothing was transmitted (fate known,
// retry freely), persist.ErrIndeterminate when the connection died
// mid-call (the peer may have applied the event).
func (r *Router) Forward(ctx context.Context, node string, call wire.Call) (status int, err error) {
	p := r.peers[node]
	if p == nil {
		return 0, fmt.Errorf("cluster: %q is not a peer of %s", node, r.cfg.Self)
	}
	p.forwards.Add(1)
	kind := call.Route().Kind
	buf := wire.GetBuf() // the inner call's bytes, copied into the frame
	var inner wire.Enc
	inner.Reset(*buf)
	call.Encode(&inner)
	status, rep, err := p.conn.Call(ctx, wire.KindForward,
		wire.Forward{Origin: r.cfg.Self, Hops: 1, Kind: kind, Body: inner.Bytes()}.Encode)
	*buf = inner.Bytes()
	wire.PutBuf(buf)
	if err == nil && call.DecodeReply(rep) != nil {
		return 0, fmt.Errorf("cluster: %s returned a malformed %v reply", node, kind)
	}
	var re *api.Error
	switch {
	case err == nil || errors.As(err, &re):
		return status, err
	case errors.Is(err, api.ErrPeerUnavailable):
		p.failures.Add(1)
		return 0, err
	case ctx.Err() != nil:
		p.failures.Add(1)
		return 0, ctx.Err()
	default:
		p.failures.Add(1)
		return 0, fmt.Errorf("%w: forward of %s to %s died mid-call: %v", persist.ErrIndeterminate, kind, node, err)
	}
}

// ServeBatch scatter-gathers one CoordinateMany batch: requests
// partition by owner — a request with no single owner belongs here —
// and each owner's slice runs as one sub-batch, concurrently: the
// local slice through local, each peer's forwarded as one wrapped
// coordinate sub-batch. The responses merge back in request order. A
// slice whose peer is dead, or whose reply does not validate, carries
// that error inline on each of its requests; the rest of the batch is
// unharmed (the batch contract).
func (r *Router) ServeBatch(ctx context.Context, reqs []api.Request, local func(context.Context, []api.Request) []api.Response) []api.Response {
	groups := make(map[string][]int)
	for i, rq := range reqs {
		node, ok := r.OwnerOfRequest(rq.Queries)
		if !ok {
			node = r.cfg.Self
		}
		groups[node] = append(groups[node], i)
	}
	out := make([]api.Response, len(reqs))
	var wg sync.WaitGroup
	for node, idxs := range groups {
		sub := make([]api.Request, len(idxs))
		for j, i := range idxs {
			sub[j] = reqs[i]
		}
		wg.Add(1)
		go func(node string, idxs []int, sub []api.Request) {
			defer wg.Done()
			var resps []api.Response
			var we *api.Error
			if node == r.cfg.Self {
				resps = local(ctx, sub)
			} else {
				call := wire.Coordinate.Bind(wire.CoordinateReq{Requests: sub})
				if _, err := r.Forward(ctx, node, call); err != nil {
					we = api.From(err)
				}
				resps = call.Reply.Responses
			}
			if we == nil && len(resps) != len(sub) {
				we = api.Errf(api.CodeInternal, "cluster: %s returned a malformed batch reply", node)
			}
			for j, i := range idxs {
				if we != nil {
					out[i] = api.Response{ID: reqs[i].ID, Error: we}
				} else {
					out[i] = resps[j]
				}
			}
		}(node, idxs, sub)
	}
	wg.Wait()
	r.observeFanout(len(groups))
	return out
}

// observeFanout meters how many nodes one batch touched.
func (r *Router) observeFanout(nodes int) {
	if nodes > 1 {
		r.scatter.Add(1)
	}
	i := nodes - 1
	if i < 0 {
		i = 0
	}
	if i >= fanoutBuckets {
		i = fanoutBuckets - 1
	}
	r.mu.Lock()
	r.fanout[i]++
	r.mu.Unlock()
}

// Status reports the node's cluster view for /v1/cluster.
func (r *Router) Status() api.ClusterStatus {
	cs := api.ClusterStatus{
		Enabled:      true,
		Self:         r.cfg.Self,
		VirtualNodes: DefaultVNodes,
		Version:      r.version,
		Nodes:        make([]api.ClusterNode, len(r.cfg.Nodes)),
	}
	for i, n := range r.cfg.Nodes {
		cn := api.ClusterNode{Name: n.Name, Addr: n.Addr, Self: n.Name == r.cfg.Self}
		if p := r.peers[n.Name]; p != nil {
			cn.Connected = p.conn.Connected()
		}
		cs.Nodes[i] = cn
	}
	rels := make([]string, 0, len(r.placement))
	for name := range r.placement {
		rels = append(rels, name)
	}
	sort.Strings(rels)
	for _, name := range rels {
		cs.Relations = append(cs.Relations, api.RelationPlacement{Relation: name, Column: r.placement[name]})
	}
	return cs
}

// Health reports the cluster slice of /healthz.
func (r *Router) Health() *api.ClusterHealth {
	ch := &api.ClusterHealth{Self: r.cfg.Self, Nodes: len(r.cfg.Nodes)}
	for _, n := range r.cfg.Nodes {
		if p := r.peers[n.Name]; p != nil && !p.conn.Connected() {
			ch.PeersDown = append(ch.PeersDown, n.Name)
		}
	}
	return ch
}

// Metrics reports the cluster slice of /metrics.
func (r *Router) Metrics() *api.ClusterMetrics {
	m := &api.ClusterMetrics{
		Self:             r.cfg.Self,
		Nodes:            len(r.cfg.Nodes),
		ForwardsReceived: r.forwardsRecv.Load(),
		RouteMoved:       r.routeMoved.Load(),
		ScatterBatches:   r.scatter.Load(),
		FanoutCounts:     make([]int64, fanoutBuckets),
	}
	r.mu.Lock()
	copy(m.FanoutCounts, r.fanout[:])
	r.mu.Unlock()
	for _, n := range r.cfg.Nodes {
		p := r.peers[n.Name]
		if p == nil {
			continue
		}
		pm := api.PeerMetrics{
			Name:      n.Name,
			Connected: p.conn.Connected(),
			Forwards:  p.forwards.Load(),
			Failures:  p.failures.Load(),
		}
		m.ForwardsSent += pm.Forwards
		m.ForwardFailures += pm.Failures
		m.Peers = append(m.Peers, pm)
	}
	return m
}
