// Distributed coordserve walkthrough: three nodes booted in-process
// into one cluster — shared static membership, one consistent-hash
// ring, full-replica stores — driven exactly as three processes
// started with -cluster-peers would be. The program proves the PR 9
// contract in miniature: every node reports the same membership
// fingerprint, a session a plain tcp:// client creates at a node is
// named so that node owns it, a misrouted request at any other node is
// forwarded one hop and answered byte-identically, a scattered batch merges back in request
// order with exact DBQueries, and killing one node degrades to typed
// peer_unavailable errors for that node's slice only — recovering as
// soon as the node rejoins. It exits non-zero on any failure, so CI
// uses it as the cluster smoke test. Run:
//
//	go run ./examples/cluster
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"reflect"
	"strconv"
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

const (
	shards = 2
	rows   = 64
)

// node is one booted cluster member.
type node struct {
	name   string
	addr   string
	router *cluster.Router
	srv    *server.Server
}

// boot starts one member on ln: its own full-replica store, its view
// of the shared membership, and a binary wire listener — the same
// wiring `coordserve -cluster-node <name> -cluster-peers ...` does.
func boot(name string, members []cluster.Node, ln net.Listener) (*node, error) {
	store := workload.NewStore(shards, rows, 0)
	placement := workload.Placement()
	if sh, ok := store.(*db.ShardedInstance); ok {
		placement = sh.HashColumns()
	}
	r, err := cluster.New(cluster.Config{Self: name, Nodes: members}, cluster.Options{
		Placement: placement,
		Dial:      func(addr string) cluster.PeerConn { return client.DialPeer(addr) },
	})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(engine.New(store, engine.Options{}), server.Options{Cluster: r})
	if err != nil {
		return nil, err
	}
	go srv.ServeWire(ln)
	return &node{name: name, addr: ln.Addr().String(), router: r, srv: srv}, nil
}

func (n *node) stop() {
	n.srv.Close()
	n.router.Close()
}

func main() {
	ctx := context.Background()

	// --- Boot three members on loopback listeners. -------------------
	// The membership is static configuration: every process is started
	// with the same node list, and the ring is a pure function of it —
	// no membership protocol runs.
	var members []cluster.Node
	lns := make([]net.Listener, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns[i] = ln
		members = append(members, cluster.Node{Name: "n" + strconv.Itoa(i+1), Addr: ln.Addr().String()})
	}
	nodes := make([]*node, 3)
	for i, m := range members {
		n, err := boot(m.Name, members, lns[i])
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = n
		defer n.stop()
	}
	v := nodes[0].router.Version()
	for _, n := range nodes[1:] {
		if n.router.Version() != v {
			log.Fatalf("membership fingerprints disagree: %s vs %s", v, n.router.Version())
		}
	}
	fmt.Printf("3 nodes up, membership %s agreed by all\n", v)

	// --- A session starts on the node that created it. --------------
	// A plain tcp:// client at n1 holds no ring; n1 names the new
	// session so that it owns it, and serves its events locally.
	cc, err := client.New("tcp://"+nodes[0].addr, client.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer cc.Close()
	sess, err := cc.CreateSession(ctx, "", false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auto-named session %q placed on its owner %s\n", sess.ID, nodes[0].router.Owner(sess.ID))
	if _, err := sess.Join(ctx, workload.ChainQuery(0, 0, rows)); err != nil {
		log.Fatal(err)
	}

	// --- A misrouted request forwards one hop. -----------------------
	// A plain tcp:// client knows nothing about the ring; whatever node
	// it happens to dial serves session ops by forwarding them to the
	// owner over the pooled peer connection and splicing the reply back
	// byte-for-byte. This one dials n2, while the session above lives on
	// the node that created it (n1).
	direct, err := client.New("tcp://"+nodes[1].addr, client.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer direct.Close()
	st, err := direct.Session(sess.ID).Status(ctx, false)
	if err != nil {
		log.Fatal(err)
	}
	stOwn, err := cc.Session(sess.ID).Status(ctx, false)
	if err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(st, stOwn) {
		log.Fatalf("forwarded status differs from owner's:\n%+v\n%+v", st, stOwn)
	}
	m := nodes[1].router.Metrics()
	fmt.Printf("misrouted status forwarded (node n2 sent %d forward(s)), replies identical\n", m.ForwardsSent)

	// --- Scatter-gather: one batch, many owners. ---------------------
	reqs := make([]client.Request, 8)
	for i := range reqs {
		reqs[i] = client.Request{ID: "r" + strconv.Itoa(i), Queries: workload.ListQueriesAt(4, i*7%rows)}
	}
	resps, err := direct.CoordinateBatch(ctx, reqs)
	if err != nil {
		log.Fatal(err)
	}
	var dbq int64
	for _, r := range resps {
		if r.Err != nil {
			log.Fatalf("%s: %v", r.ID, r.Err)
		}
		dbq += r.Result.DBQueries
	}
	m = nodes[1].router.Metrics()
	fmt.Printf("8-request batch scattered across owners (%d sub-batches forwarded), %d DB queries total\n",
		m.ForwardsSent, dbq)

	// --- Kill one node: typed errors for its slice only. -------------
	victimName := nodes[2].name
	nodes[2].stop()
	var downIdx int
	ring := nodes[0].router.Ring()
	for i := 0; ; i++ {
		if ring.OwnerOfValue(workloadValue(i)) == victimName {
			downIdx = i
			break
		}
	}
	var upIdx int
	for i := 0; ; i++ {
		if ring.OwnerOfValue(workloadValue(i)) == nodes[0].name {
			upIdx = i
			break
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resps, err = direct.CoordinateBatch(ctx, []client.Request{
			{ID: "down", Queries: workload.ListQueriesAt(4, downIdx)},
			{ID: "up", Queries: workload.ListQueriesAt(4, upIdx)},
		})
		if err != nil {
			log.Fatalf("batch with a dead member failed as a whole: %v", err)
		}
		if resps[1].Err != nil {
			log.Fatalf("live slice harmed by the dead member: %v", resps[1].Err)
		}
		var ce *client.Error
		if !errors.As(resps[0].Err, &ce) {
			log.Fatalf("dead slice error is untyped: %v", resps[0].Err)
		}
		if ce.Code == api.CodePeerUnavailable {
			fmt.Printf("killed %s: its slice fails typed %s (retryable, fate known), the rest is served\n",
				victimName, ce.Code)
			break
		}
		// The call in flight when the connection dropped may come back
		// ack_indeterminate once; after that the drop is observed.
		if ce.Code != api.CodeAckIndeterminate || time.Now().After(deadline) {
			log.Fatalf("dead slice error %s, want peer_unavailable", ce.Code)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// --- Rejoin on the old address: forwarding resumes. --------------
	ln, err := net.Listen("tcp", nodes[2].addr)
	if err != nil {
		log.Fatal(err)
	}
	reborn, err := boot(victimName, members, ln)
	if err != nil {
		log.Fatal(err)
	}
	defer reborn.stop()
	deadline = time.Now().Add(10 * time.Second)
	for {
		resps, err = direct.CoordinateBatch(ctx, []client.Request{{ID: "back", Queries: workload.ListQueriesAt(4, downIdx)}})
		if err == nil && resps[0].Err == nil {
			fmt.Printf("%s rejoined: its slice serves again without restarting anything else\n", victimName)
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("forwarding never recovered: %v %v", err, resps[0].Err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// workloadValue names table value i the way the canonical workload does.
func workloadValue(i int) eq.Value { return eq.Value("c" + strconv.Itoa(i)) }
