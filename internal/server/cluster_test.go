package server_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"entangled/internal/api"
	"entangled/internal/client"
	"entangled/internal/cluster"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/server"
	"entangled/internal/workload"
)

// clusterNode is one member of a loopback test cluster.
type clusterNode struct {
	name   string
	addr   string
	router *cluster.Router
	srv    *server.Server
	hs     *httptest.Server
	dead   bool
}

// loopCluster boots n coordserve nodes into one cluster on loopback
// TCP: every node holds an identically built full-replica store, the
// shared static membership, and real peer connections, exactly as n
// processes started with -cluster-peers would.
type loopCluster struct {
	tb      testing.TB
	nodes   []*clusterNode
	members []cluster.Node
	shards  int
	rows    int
	sopts   server.Options
}

func newLoopCluster(tb testing.TB, n, shards, rows int, sopts server.Options) *loopCluster {
	tb.Helper()
	lc := &loopCluster{tb: tb, shards: shards, rows: rows, sopts: sopts}
	// Listeners first: the membership needs every node's address before
	// any node can boot.
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		lns[i] = ln
		lc.members = append(lc.members, cluster.Node{Name: "n" + strconv.Itoa(i+1), Addr: ln.Addr().String()})
	}
	lc.nodes = make([]*clusterNode, n)
	for i := range lns {
		lc.nodes[i] = lc.boot(i, lns[i])
	}
	tb.Cleanup(func() {
		for _, cn := range lc.nodes {
			if !cn.dead {
				lc.stop(cn)
			}
		}
	})
	lc.waitUp()
	return lc
}

// waitUp returns once every node holds a live connection to each of its
// peers, so a test starts from a cluster that is up: a peer's first dial
// runs in its keeper, and until it lands Health reports the peer down.
func (lc *loopCluster) waitUp() {
	lc.tb.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		var down []string
		for _, cn := range lc.nodes {
			for _, p := range cn.router.Health().PeersDown {
				down = append(down, cn.name+"->"+p)
			}
		}
		if len(down) == 0 {
			return
		}
		if time.Now().After(deadline) {
			lc.tb.Fatalf("cluster never came up: no live connection %v", down)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// boot builds one member: its own store replica, router, and server
// speaking both protocols.
func (lc *loopCluster) boot(i int, ln net.Listener) *clusterNode {
	lc.tb.Helper()
	store := workload.NewStore(lc.shards, lc.rows, 0)
	placement := workload.Placement()
	if sh, ok := store.(*db.ShardedInstance); ok {
		placement = sh.HashColumns()
	}
	r, err := cluster.New(cluster.Config{Self: lc.members[i].Name, Nodes: lc.members}, cluster.Options{
		Placement: placement,
		Dial:      func(addr string) cluster.PeerConn { return client.DialPeer(addr) },
	})
	if err != nil {
		lc.tb.Fatal(err)
	}
	sopts := lc.sopts
	sopts.Cluster = r
	srv, err := server.New(engine.New(store, engine.Options{}), sopts)
	if err != nil {
		lc.tb.Fatal(err)
	}
	go srv.ServeWire(ln)
	return &clusterNode{
		name:   lc.members[i].Name,
		addr:   lc.members[i].Addr,
		router: r,
		srv:    srv,
		hs:     httptest.NewServer(srv),
	}
}

func (lc *loopCluster) stop(cn *clusterNode) {
	cn.hs.Close()
	cn.srv.Close()
	cn.router.Close()
	cn.dead = true
}

// kill takes node i down hard: server, listeners, and peer connections
// all close, as a crashed process would.
func (lc *loopCluster) kill(i int) { lc.stop(lc.nodes[i]) }

// rejoin brings a killed node back on its original membership address
// with a fresh (empty-session) replica, as a restarted process would.
func (lc *loopCluster) rejoin(i int) {
	lc.tb.Helper()
	var ln net.Listener
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; {
		ln, err = net.Listen("tcp", lc.nodes[i].addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			lc.tb.Fatalf("rebinding %s: %v", lc.nodes[i].addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	lc.nodes[i] = lc.boot(i, ln)
}

// binTo returns a direct binary client pointed at node i (a client
// that has NOT fetched the ring — misrouted calls exercise forwarding).
func (lc *loopCluster) binTo(t testing.TB, i int) *client.Client {
	t.Helper()
	c, err := client.New("tcp://"+lc.nodes[i].addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// httpTo returns an HTTP client pointed at node i.
func (lc *loopCluster) httpTo(t testing.TB, i int) *client.Client {
	t.Helper()
	c, err := client.New(lc.nodes[i].hs.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// owner returns the member name owning a session name.
func (lc *loopCluster) owner(session string) string { return lc.nodes[0].router.Owner(session) }

// nameOwnedBy scans for a session name the given member owns.
func (lc *loopCluster) nameOwnedBy(prefix, node string) string {
	for i := 0; ; i++ {
		name := prefix + strconv.Itoa(i)
		if lc.owner(name) == node {
			return name
		}
	}
}

// valueIdxOwnedBy scans for a table row index whose value c<idx> the
// given member owns under the canonical placement.
func (lc *loopCluster) valueIdxOwnedBy(t testing.TB, node string) int {
	t.Helper()
	ring := lc.nodes[0].router.Ring()
	for i := 0; i < lc.rows; i++ {
		if ring.OwnerOfValue(eq.Value("c"+strconv.Itoa(i))) == node {
			return i
		}
	}
	t.Fatalf("no table value owned by %s among %d rows", node, lc.rows)
	return 0
}

// TestClusterPlacementAndForwarding pins the routing surfaces on a live
// 3-node cluster: /v1/cluster membership agreement, self-owned
// auto-generated session names, one session mutated through all three
// nodes, route_moved on a misplaced subscribe, and the forward counters.
func TestClusterPlacementAndForwarding(t *testing.T) {
	lc := newLoopCluster(t, 3, 2, 16, server.Options{})
	ctx := context.Background()

	// Every node reports the same membership fingerprint, flags itself,
	// and publishes the placement contract.
	var versions []string
	for i, cn := range lc.nodes {
		resp, err := http.Get(cn.hs.URL + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		var cs api.ClusterStatus
		if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !cs.Enabled || len(cs.Nodes) != 3 || cs.Self != cn.name {
			t.Fatalf("node %d cluster status %+v", i, cs)
		}
		for _, n := range cs.Nodes {
			if n.Self != (n.Name == cn.name) {
				t.Fatalf("node %d misflags self: %+v", i, cs.Nodes)
			}
		}
		if len(cs.Relations) != 1 || cs.Relations[0].Relation != "T" || cs.Relations[0].Column != 1 {
			t.Fatalf("node %d placement %+v, want T/1", i, cs.Relations)
		}
		// The reported fingerprint is the router's, which is the
		// membership's, over 64 virtual nodes a member.
		if v := (cluster.Config{Self: cn.name, Nodes: lc.members}).Version(); cs.Version != cn.router.Version() || cs.Version != v || cs.VirtualNodes != 64 {
			t.Fatalf("node %d reports version %s over %d vnodes; router %s, membership %s, want 64", i, cs.Version, cs.VirtualNodes, cn.router.Version(), v)
		}
		versions = append(versions, cs.Version)
	}
	if versions[0] != versions[1] || versions[1] != versions[2] {
		t.Fatalf("membership fingerprints disagree: %v", versions)
	}

	// Auto-generated names are self-owned: ownership partitions the
	// generated namespace, so a new session never starts life misplaced.
	for i := range lc.nodes {
		sess, err := lc.binTo(t, i).CreateSession(ctx, "", false)
		if err != nil {
			t.Fatal(err)
		}
		if owner := lc.owner(sess.ID); owner != lc.nodes[i].name {
			t.Fatalf("node %s generated name %q owned by %s", lc.nodes[i].name, sess.ID, owner)
		}
	}

	// One session owned by n2, created and mutated only through OTHER
	// nodes over both protocols: every op forwards, and all three nodes
	// agree on the resulting state.
	name := lc.nameOwnedBy("fwd", "n2")
	c0, c2 := lc.binTo(t, 0), lc.binTo(t, 2)
	h2 := lc.httpTo(t, 2)
	if _, err := c0.CreateSession(ctx, name, true); err != nil {
		t.Fatalf("forwarded create: %v", err)
	}
	trio := unsafeTrio("fw")
	if _, err := c0.Session(name).Join(ctx, trio[0]); err != nil {
		t.Fatalf("forwarded binary join: %v", err)
	}
	if _, err := h2.Session(name).Join(ctx, trio[1]); err != nil {
		t.Fatalf("forwarded HTTP join: %v", err)
	}
	// The parked arrival's 202 semantics survive the hop.
	up, err := c2.Session(name).Join(ctx, trio[2])
	if err != nil || !up.Parked {
		t.Fatalf("forwarded parked join: %+v %v", up, err)
	}
	var stats []string
	for i := range lc.nodes {
		st, err := lc.binTo(t, i).Session(name).Status(ctx, true)
		if err != nil {
			t.Fatalf("status via node %d: %v", i, err)
		}
		js, _ := json.Marshal(st)
		stats = append(stats, string(js))
	}
	if stats[0] != stats[1] || stats[1] != stats[2] {
		t.Fatalf("nodes disagree on session state:\n%s\n%s\n%s", stats[0], stats[1], stats[2])
	}
	var st api.SessionStatus
	json.Unmarshal([]byte(stats[0]), &st)
	if st.Live != 2 || st.Parked != 1 {
		t.Fatalf("session state %+v, want 2 live 1 parked", st)
	}

	// Subscribe is ownership-gated: push flows only from the owner, so a
	// misplaced subscribe answers the typed route_moved naming the owner.
	_, err = c0.Session(name).Subscribe(ctx, func(client.Notification) {})
	var ce *client.Error
	if !asClientError(err, &ce) || ce.Code != api.CodeRouteMoved {
		t.Fatalf("misplaced subscribe: %v, want route_moved", err)
	}
	if ce.Owner != "n2" {
		t.Fatalf("route_moved owner %q, want n2", ce.Owner)
	}
	if ce.Status != http.StatusMisdirectedRequest {
		t.Fatalf("route_moved status %d, want 421", ce.Status)
	}
	if !client.IsRetryable(err) || !client.FateKnown(err) {
		t.Fatalf("route_moved must be fate-known retryable: retryable=%v fateKnown=%v",
			client.IsRetryable(err), client.FateKnown(err))
	}
	// Subscribing at the owner works.
	stop, err := lc.binTo(t, 1).Session(name).Subscribe(ctx, func(client.Notification) {})
	if err != nil {
		t.Fatalf("owner subscribe: %v", err)
	}
	stop()

	// The forward counters saw the hops: node 0 sent, node 2 received
	// (and the scatter metrics surface shape is present).
	m0, err := lc.httpTo(t, 0).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m0.Cluster == nil || m0.Cluster.ForwardsSent < 2 {
		t.Fatalf("node 0 cluster metrics %+v, want >= 2 forwards sent", m0.Cluster)
	}
	m1, err := lc.httpTo(t, 1).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Cluster == nil || m1.Cluster.ForwardsReceived < 2 {
		t.Fatalf("node 1 (n2) cluster metrics %+v, want >= 2 forwards received", m1.Cluster)
	}
	if len(m0.Cluster.FanoutCounts) == 0 || len(m0.Cluster.Peers) != 2 {
		t.Fatalf("node 0 cluster metrics missing scatter/peer shape: %+v", m0.Cluster)
	}
	// Health carries the cluster slice.
	h, err := c0.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cluster == nil || h.Cluster.Nodes != 3 || len(h.Cluster.PeersDown) != 0 {
		t.Fatalf("health cluster slice %+v, want 3 nodes all up", h.Cluster)
	}
}

// asClientError is errors.As without importing errors twice in tests.
func asClientError(err error, ce **client.Error) bool {
	for err != nil {
		if e, ok := err.(*client.Error); ok {
			*ce = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestClusterKillNodeTypedErrorsAndRejoin kills one member and checks
// the degradation contract: work owned by the dead node fails with the
// typed, fate-known peer_unavailable (never a hang, never an untyped
// error), work owned by live nodes is unharmed — and when the node
// rejoins on its old address, forwarding resumes without restarting
// anything else.
func TestClusterKillNodeTypedErrorsAndRejoin(t *testing.T) {
	const rows = 64 // enough table values that every member owns some
	lc := newLoopCluster(t, 3, 1, rows, server.Options{})
	ctx := context.Background()
	c0 := lc.binTo(t, 0)

	victim := 2 // kill n3
	name := lc.nameOwnedBy("kill", "n3")
	if _, err := c0.CreateSession(ctx, name, false); err != nil {
		t.Fatalf("pre-kill forwarded create: %v", err)
	}
	lc.kill(victim)

	// Session ops owned by the dead node: typed errors only. The call
	// in flight when the connection dropped may (correctly) come back
	// ack_indeterminate — the peer might have applied it — but once the
	// drop is observed every send fails fate-known peer_unavailable.
	var ce *client.Error
	for deadline := time.Now().Add(5 * time.Second); ; {
		_, err := c0.Session(name).Join(ctx, workload.ChainQuery(0, 0, rows))
		if !asClientError(err, &ce) {
			t.Fatalf("join to dead owner: %v, want a typed *client.Error", err)
		}
		if ce.Code == api.CodePeerUnavailable {
			if ce.Status != http.StatusBadGateway {
				t.Fatalf("peer_unavailable status %d, want 502", ce.Status)
			}
			if !client.IsRetryable(err) || !client.FateKnown(err) {
				t.Fatal("peer_unavailable must be fate-known retryable")
			}
			break
		}
		if ce.Code != api.CodeAckIndeterminate {
			t.Fatalf("join to dead owner: %v, want peer_unavailable or ack_indeterminate", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("drop never settled to peer_unavailable: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Same over HTTP forwarding.
	_, herr := lc.httpTo(t, 0).Session(name).Status(ctx, false)
	if !asClientError(herr, &ce) || ce.Code != api.CodePeerUnavailable {
		t.Fatalf("HTTP status to dead owner: %v, want peer_unavailable", herr)
	}

	// A scattered batch: the dead node's slice fails inline with the
	// typed code, every other request in the batch is served.
	deadIdx := lc.valueIdxOwnedBy(t, "n3")
	liveIdx := lc.valueIdxOwnedBy(t, "n1")
	resps, err := c0.CoordinateBatch(ctx, []client.Request{
		{ID: "dead", Queries: workload.ListQueriesAt(4, deadIdx)},
		{ID: "live", Queries: workload.ListQueriesAt(4, liveIdx)},
	})
	if err != nil {
		t.Fatalf("batch with a dead owner must not fail as a whole: %v", err)
	}
	if !asClientError(resps[0].Err, &ce) || ce.Code != api.CodePeerUnavailable {
		t.Fatalf("dead slice: %+v, want inline peer_unavailable", resps[0])
	}
	if resps[1].Err != nil || resps[1].Result == nil {
		t.Fatalf("live slice harmed by the dead peer: %+v", resps[1])
	}

	// Health on a survivor reports the dead peer (the pooled connection
	// noticed the drop).
	for deadline := time.Now().Add(5 * time.Second); ; {
		h, err := c0.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Cluster != nil && len(h.Cluster.PeersDown) == 1 && h.Cluster.PeersDown[0] == "n3" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivor never reported n3 down: %+v", h.Cluster)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Rejoin on the old address: the survivors' keepers redial and
	// forwarding resumes. The restarted replica has no sessions (this
	// cluster is in-memory), so re-create and use the same name.
	lc.rejoin(victim)
	var sess *client.Session
	for deadline := time.Now().Add(10 * time.Second); ; {
		sess, err = c0.CreateSession(ctx, name, false)
		if err == nil {
			break
		}
		if !client.IsRetryable(err) {
			t.Fatalf("rejoin create failed non-retryably: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("forwarding never recovered after rejoin: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if up, err := sess.Join(ctx, workload.ChainQuery(0, 0, rows)); err != nil || !up.Admitted {
		t.Fatalf("post-rejoin forwarded join: %+v %v", up, err)
	}
	// The batch path recovered too.
	resps, err = c0.CoordinateBatch(ctx, []client.Request{{ID: "back", Queries: workload.ListQueriesAt(4, deadIdx)}})
	if err != nil || resps[0].Err != nil {
		t.Fatalf("post-rejoin scattered batch: %v %+v", err, resps)
	}
}
