package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"entangled/internal/api"
	"entangled/internal/cluster"
	"entangled/internal/wire"
)

// clusterTransport routes calls across a coordserve cluster: it
// fetches the membership from the seed node's /v1/cluster, rebuilds
// the consistent-hash ring locally (the ring is a pure function of
// membership + virtual-node count, so client and servers agree
// byte-for-byte), and holds one pooled binary transport per node.
// Session ops go straight to the session's owner; batch requests are
// partitioned by the same placement rule the servers use and
// scatter-gathered client-side. A route_moved reply — the ring this
// client holds is stale — triggers one refresh-and-reroute toward the
// owner the server named; a misrouted call that a server can serve by
// forwarding is simply served (one extra hop), so a stale client
// degrades to forwarding, never to failure.
type clusterTransport struct {
	seed string
	// tenant propagates to every pooled per-node transport, so each
	// edge node sees the same identity.
	tenant string

	mu        sync.Mutex
	ring      *cluster.Ring
	placement map[string]int
	addrs     map[string]string           // node name -> binary addr
	conns     map[string]*binaryTransport // binary addr -> pooled transport
	closed    bool
}

func newClusterTransport(seed, tenant string) *clusterTransport {
	return &clusterTransport{seed: seed, tenant: tenant, conns: map[string]*binaryTransport{}}
}

// connFor returns (creating if needed) the pooled transport for one
// node address.
func (t *clusterTransport) connFor(addr string) (*binaryTransport, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errClientClosed
	}
	bt := t.conns[addr]
	if bt == nil {
		bt = newBinaryTransport(addr, t.tenant)
		t.conns[addr] = bt
	}
	return bt, nil
}

// knownAddrs returns every address worth asking for the ring: the
// membership we hold (sorted for determinism), then the seed.
func (t *clusterTransport) knownAddrs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	addrs := make([]string, 0, len(t.addrs)+1)
	for _, a := range t.addrs {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	if len(addrs) == 0 {
		addrs = append(addrs, t.seed)
	}
	return addrs
}

// refresh re-fetches the cluster status and rebuilds the ring, trying
// every known node until one answers.
func (t *clusterTransport) refresh(ctx context.Context) error {
	var lastErr error
	for _, addr := range t.knownAddrs() {
		bt, err := t.connFor(addr)
		if err != nil {
			return err
		}
		cs, err := invoke(ctx, bt, wire.Cluster, wire.None{})
		if err != nil {
			lastErr = err
			continue
		}
		if !cs.Enabled || len(cs.Nodes) == 0 {
			return fmt.Errorf("client: %s is not part of a cluster", addr)
		}
		names := make([]string, len(cs.Nodes))
		addrs := make(map[string]string, len(cs.Nodes))
		for i, n := range cs.Nodes {
			names[i] = n.Name
			addrs[n.Name] = n.Addr
		}
		placement := make(map[string]int, len(cs.Relations))
		for _, rp := range cs.Relations {
			placement[rp.Relation] = rp.Column
		}
		t.mu.Lock()
		t.ring = cluster.NewRing(names, cs.VirtualNodes)
		t.addrs = addrs
		t.placement = placement
		t.mu.Unlock()
		return nil
	}
	return fmt.Errorf("client: fetching cluster membership: %w", lastErr)
}

// view returns the current ring state, fetching it on first use.
func (t *clusterTransport) view(ctx context.Context) (*cluster.Ring, map[string]int, map[string]string, error) {
	t.mu.Lock()
	ring, placement, addrs := t.ring, t.placement, t.addrs
	t.mu.Unlock()
	if ring != nil {
		return ring, placement, addrs, nil
	}
	if err := t.refresh(ctx); err != nil {
		return nil, nil, nil, err
	}
	t.mu.Lock()
	ring, placement, addrs = t.ring, t.placement, t.addrs
	t.mu.Unlock()
	return ring, placement, addrs, nil
}

// connForNode resolves a node name to its pooled transport.
func (t *clusterTransport) connForNode(ctx context.Context, node string) (*binaryTransport, error) {
	_, _, addrs, err := t.view(ctx)
	if err != nil {
		return nil, err
	}
	addr, ok := addrs[node]
	if !ok {
		return nil, fmt.Errorf("client: cluster has no node %q", node)
	}
	return t.connFor(addr)
}

// call routes one operation: a session-scoped call goes to the
// session's owner, a batch scatters by placement, and anything else
// (an auto-named create, health, the cluster view) is served by the
// first node that answers.
func (t *clusterTransport) call(ctx context.Context, c wire.Call) error {
	if batch, ok := c.(*wire.Bound[wire.CoordinateReq, api.CoordinateResponse]); ok {
		return t.scatter(ctx, batch)
	}
	if key := c.Key(); key != "" {
		return t.sessionCall(ctx, key, func(bt *binaryTransport) error { return bt.call(ctx, c) })
	}
	var lastErr error
	for _, addr := range t.knownAddrs() {
		bt, err := t.connFor(addr)
		if err != nil {
			return err
		}
		lastErr = bt.call(ctx, c)
		var e *Error
		if lastErr == nil || errors.As(lastErr, &e) {
			return lastErr // served, or refused in a way every node would repeat
		}
	}
	return lastErr
}

// sessionCall routes one session-scoped call to the session's owner,
// and on a route_moved reply (this client's ring was stale) refreshes
// the ring and retries exactly once against the owner the server
// named.
func (t *clusterTransport) sessionCall(ctx context.Context, session string, fn func(tt *binaryTransport) error) error {
	ring, _, _, err := t.view(ctx)
	if err != nil {
		return err
	}
	bt, err := t.connForNode(ctx, ring.Owner(session))
	if err != nil {
		return err
	}
	err = fn(bt)
	var e *Error
	if errors.As(err, &e) && e.Code == api.CodeRouteMoved {
		if rerr := t.refresh(ctx); rerr != nil {
			return err
		}
		owner := e.Owner
		if owner == "" {
			ring, _, _, verr := t.view(ctx)
			if verr != nil {
				return err
			}
			owner = ring.Owner(session)
		}
		bt2, cerr := t.connForNode(ctx, owner)
		if cerr != nil {
			return err
		}
		return fn(bt2)
	}
	return err
}

// scatter partitions a batch by owner exactly as the servers do
// (cluster.Scatter); a request with no single owner can be served (and,
// server-side, scatter-gathered) by any node, so those spread by
// request ID.
func (t *clusterTransport) scatter(ctx context.Context, batch *wire.Bound[wire.CoordinateReq, api.CoordinateResponse]) error {
	ring, placement, addrs, err := t.view(ctx)
	if err != nil {
		return err
	}
	batch.Reply.Responses, _ = cluster.Scatter(batch.Req.Requests, func(rq api.Request) string {
		if node, ok := cluster.OwnerOfQueries(ring, placement, rq.Queries); ok {
			return node
		}
		return ring.Owner(rq.ID)
	}, func(node string, sub []api.Request) ([]api.Response, *api.Error) {
		bt, err := t.connFor(addrs[node])
		var rep api.CoordinateResponse
		if err == nil {
			rep, err = invoke(ctx, bt, wire.Coordinate, wire.CoordinateReq{Requests: sub})
		}
		// What the node answered relays as it is; a node that answered
		// nothing is unreachable.
		var e *Error
		if err != nil && !errors.As(err, &e) {
			e = &Error{Code: api.CodePeerUnavailable,
				Message: fmt.Sprintf("cluster: node %s (%s) unreachable: %v", node, addrs[node], err)}
		}
		return rep.Responses, e
	})
	return nil
}

func (t *clusterTransport) subscribe(ctx context.Context, session string, fn func(Notification)) (func(), error) {
	// Push flows only from the session's owner (subscribing elsewhere
	// answers route_moved), so the subscription lives on the owner's
	// pooled connection.
	var stop func()
	err := t.sessionCall(ctx, session, func(bt *binaryTransport) error {
		var err error
		stop, err = bt.subscribe(ctx, session, fn)
		return err
	})
	return stop, err
}

func (t *clusterTransport) close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*binaryTransport, 0, len(t.conns))
	for _, bt := range t.conns {
		conns = append(conns, bt)
	}
	t.mu.Unlock()
	for _, bt := range conns {
		bt.close()
	}
	return nil
}
