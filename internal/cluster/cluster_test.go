package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"entangled/internal/api"
	"entangled/internal/cluster"
	"entangled/internal/eq"
	"entangled/internal/wire"
)

// TestRingOrderIndependent pins the zero-protocol membership contract:
// every process given the same member set builds the identical ring,
// regardless of the order the members were listed in.
func TestRingOrderIndependent(t *testing.T) {
	names := []string{"n1", "n2", "n3", "n4", "n5"}
	base := cluster.NewRing(names, 0)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]string(nil), names...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r := cluster.NewRing(shuffled, 0)
		for k := 0; k < 1000; k++ {
			key := "s" + strconv.Itoa(k)
			if got, want := r.Owner(key), base.Owner(key); got != want {
				t.Fatalf("trial %d: Owner(%q) = %q with order %v, want %q", trial, key, got, shuffled, want)
			}
		}
	}
}

// TestRingBalance checks DefaultVNodes spreads ownership across a
// 3-node ring: no node owns a wildly disproportionate share.
func TestRingBalance(t *testing.T) {
	r := cluster.NewRing([]string{"a", "b", "c"}, 0)
	counts := map[string]int{}
	const keys = 20000
	for k := 0; k < keys; k++ {
		counts[r.Owner("session-"+strconv.Itoa(k))]++
	}
	for _, n := range []string{"a", "b", "c"} {
		frac := float64(counts[n]) / keys
		if frac < 0.10 || frac > 0.60 {
			t.Fatalf("node %s owns %.1f%% of keys (%v); ring is badly unbalanced", n, 100*frac, counts)
		}
	}
}

// TestRingStability checks the consistent-hashing property: removing
// one member only moves the keys that member owned.
func TestRingStability(t *testing.T) {
	full := cluster.NewRing([]string{"a", "b", "c", "d"}, 0)
	reduced := cluster.NewRing([]string{"a", "b", "c"}, 0)
	for k := 0; k < 5000; k++ {
		key := "k" + strconv.Itoa(k)
		before := full.Owner(key)
		if before == "d" {
			continue
		}
		if after := reduced.Owner(key); after != before {
			t.Fatalf("key %q moved %s -> %s although its owner stayed in the membership", key, before, after)
		}
	}
}

func TestParsePeers(t *testing.T) {
	nodes, err := cluster.ParsePeers("c=10.0.0.3:9101, a=10.0.0.1:9101 ,b=10.0.0.2:9101")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("parsed %d nodes, want 3", len(nodes))
	}
	for _, bad := range []string{"", "a", "=addr", "a=", "a=1,a"} {
		if _, err := cluster.ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	nodes := []cluster.Node{{Name: "a", Addr: "h:1"}, {Name: "b", Addr: "h:2"}}
	dial := func(string) cluster.PeerConn { return deadPeer{} }
	cases := []struct {
		name string
		cfg  cluster.Config
		opts cluster.Options
	}{
		{"self not a member", cluster.Config{Self: "z", Nodes: nodes}, cluster.Options{Dial: dial}},
		{"duplicate name", cluster.Config{Self: "a", Nodes: []cluster.Node{{Name: "a", Addr: "h:1"}, {Name: "a", Addr: "h:2"}}}, cluster.Options{Dial: dial}},
		{"empty membership", cluster.Config{Self: "a"}, cluster.Options{Dial: dial}},
		{"missing dial", cluster.Config{Self: "a", Nodes: nodes}, cluster.Options{}},
	}
	for _, tc := range cases {
		if _, err := cluster.New(tc.cfg, tc.opts); err == nil {
			t.Errorf("%s: New accepted", tc.name)
		}
	}
	// A single-node membership needs no Dial: there is nobody to call.
	r, err := cluster.New(cluster.Config{Self: "solo", Nodes: []cluster.Node{{Name: "solo", Addr: "h:1"}}}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.OwnsLocally("anything") {
		t.Fatal("a single-node ring must own every key")
	}
}

// TestVersionFingerprint pins what the membership fingerprint is
// sensitive to: order must not matter, names and addresses must.
func TestVersionFingerprint(t *testing.T) {
	a := cluster.Config{Self: "a", Nodes: []cluster.Node{{Name: "a", Addr: "h:1"}, {Name: "b", Addr: "h:2"}}}
	b := cluster.Config{Self: "b", Nodes: []cluster.Node{{Name: "b", Addr: "h:2"}, {Name: "a", Addr: "h:1"}}}
	if a.Version() != b.Version() {
		t.Fatalf("order/self changed the fingerprint: %s vs %s", a.Version(), b.Version())
	}
	diffs := []cluster.Config{
		{Self: "a", Nodes: []cluster.Node{{Name: "a", Addr: "h:1"}, {Name: "b", Addr: "h:9"}}},
		{Self: "a", Nodes: []cluster.Node{{Name: "a", Addr: "h:1"}, {Name: "c", Addr: "h:2"}}},
	}
	for i, d := range diffs {
		if d.Version() == a.Version() {
			t.Errorf("diff %d: fingerprint unchanged (%s)", i, a.Version())
		}
	}
	// The value itself is protocol: nodes built from different commits
	// compare fingerprints, so the hash behind it must never drift.
	pinned := cluster.Config{Self: "a", Nodes: []cluster.Node{{Name: "a", Addr: "1:1"}, {Name: "b", Addr: "2:2"}, {Name: "c", Addr: "h:3"}}}
	if got := pinned.Version(); got != "ring-fe856694" {
		t.Errorf("fingerprint drifted: %s, want ring-fe856694", got)
	}
}

// pinned builds a one-atom query body pinning T's val column to c.
func pinned(id string, c eq.Value) eq.Query {
	return eq.Query{
		ID:   id,
		Head: []eq.Atom{eq.NewAtom("R", eq.C(eq.Value("U"+id)), eq.V("x"))},
		Body: []eq.Atom{eq.NewAtom("T", eq.V("k"), eq.C(c))},
	}
}

// valueOwnedBy scans for a table value the given node owns.
func valueOwnedBy(t *testing.T, r *cluster.Ring, node string) eq.Value {
	t.Helper()
	for i := 0; i < 10000; i++ {
		v := eq.Value("c" + strconv.Itoa(i))
		if r.OwnerOfValue(v) == node {
			return v
		}
	}
	t.Fatalf("no value owned by %s in 10000 candidates", node)
	return ""
}

func TestOwnerOfQueries(t *testing.T) {
	r := cluster.NewRing([]string{"a", "b", "c"}, 0)
	placement := map[string]int{"T": 1}
	va, vb := valueOwnedBy(t, r, "a"), valueOwnedBy(t, r, "b")

	if owner, ok := cluster.OwnerOfQueries(r, placement, []eq.Query{pinned("q1", va), pinned("q2", va)}); !ok || owner != "a" {
		t.Fatalf("single-value request: owner %q ok %v, want a", owner, ok)
	}
	// Constants hashing to different owners: no single owner.
	if _, ok := cluster.OwnerOfQueries(r, placement, []eq.Query{pinned("q1", va), pinned("q2", vb)}); ok {
		t.Fatal("split-owner request reported a single owner")
	}
	// A variable in the placement column: unroutable.
	free := pinned("q", va)
	free.Body = []eq.Atom{eq.NewAtom("T", eq.V("k"), eq.V("v"))}
	if _, ok := cluster.OwnerOfQueries(r, placement, []eq.Query{free}); ok {
		t.Fatal("free-column request reported an owner")
	}
	// A relation without a placement entry: unroutable.
	other := pinned("q", va)
	other.Body = []eq.Atom{eq.NewAtom("S", eq.V("k"), eq.C(va))}
	if _, ok := cluster.OwnerOfQueries(r, placement, []eq.Query{other}); ok {
		t.Fatal("unplaced-relation request reported an owner")
	}
	// No body atoms: nothing to place by.
	empty := eq.Query{ID: "q", Head: pinned("q", va).Head}
	if _, ok := cluster.OwnerOfQueries(r, placement, []eq.Query{empty}); ok {
		t.Fatal("bodiless request reported an owner")
	}
	// Placement agreement with db's shardIndex is pinned in
	// internal/server's cluster tests against a real sharded store.
}

// fakePeer answers Forward calls in-process: serve decodes the wrapped
// envelope and returns the inner reply (or an error).
type fakePeer struct {
	serve func(fwd wire.Forward) (int, []byte, error)
}

func (p fakePeer) Call(_ context.Context, kind wire.Kind, encode func(*wire.Enc)) (int, wire.Reply, error) {
	if kind != wire.KindForward {
		return 0, wire.Reply{}, fmt.Errorf("fake peer got kind %v, want KindForward", kind)
	}
	var e wire.Enc
	encode(&e)
	d := wire.NewDec(e.Bytes())
	fwd := wire.DecodeForward(d)
	if err := d.Finish(); err != nil {
		return 0, wire.Reply{}, fmt.Errorf("fake peer: bad forward envelope: %w", err)
	}
	status, body, err := p.serve(fwd)
	return status, wire.Reply{Body: body}, err
}
func (p fakePeer) Connected() bool { return true }
func (p fakePeer) Close() error    { return nil }

// deadPeer refuses every call with the nothing-was-transmitted error.
type deadPeer struct{}

func (deadPeer) Call(context.Context, wire.Kind, func(*wire.Enc)) (int, wire.Reply, error) {
	return 0, wire.Reply{}, fmt.Errorf("dial: %w", api.ErrPeerUnavailable)
}
func (deadPeer) Connected() bool { return false }
func (deadPeer) Close() error    { return nil }

// newFakeRouter builds an a/b/c router with self=a and the given peer
// connections for b and c.
func newFakeRouter(t *testing.T, peers map[string]cluster.PeerConn) *cluster.Router {
	t.Helper()
	r, err := cluster.New(cluster.Config{
		Self: "a",
		Nodes: []cluster.Node{
			{Name: "a", Addr: "h:1"}, {Name: "b", Addr: "h:2"}, {Name: "c", Addr: "h:3"},
		},
	}, cluster.Options{
		Placement: map[string]int{"T": 1},
		Dial: func(addr string) cluster.PeerConn {
			name := map[string]string{"h:2": "b", "h:3": "c"}[addr]
			return peers[name]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestRouteMovedError(t *testing.T) {
	r := newFakeRouter(t, map[string]cluster.PeerConn{"b": deadPeer{}, "c": deadPeer{}})
	// Find a session name someone else owns.
	var name string
	for i := 0; i < 10000; i++ {
		name = "s" + strconv.Itoa(i)
		if !r.OwnsLocally(name) {
			break
		}
	}
	err := r.RouteMoved("session", name)
	if !errors.Is(err, api.ErrRouteMoved) {
		t.Fatalf("RouteMoved error %v does not unwrap to api.ErrRouteMoved", err)
	}
	var o api.Owned
	if !errors.As(err, &o) || o.OwnerNode() != r.Owner(name) {
		t.Fatalf("RouteMoved error does not carry owner %q: %v", r.Owner(name), err)
	}
	if we := api.From(err); we.Code != api.CodeRouteMoved || we.Owner != r.Owner(name) {
		t.Fatalf("From(%v) = %+v, want route_moved with owner", err, we)
	}
	if m := r.Metrics(); m.RouteMoved != 1 {
		t.Fatalf("RouteMoved counter %d, want 1", m.RouteMoved)
	}
}

// TestServeBatchScatterGather drives the Router's scatter-gather with
// fake peers: the local slice is served in-process, each peer's slice
// arrives as one wrapped KindCoordinate sub-batch, a dead peer fails
// only its own requests (typed inline errors), and the merged result
// preserves request order.
func TestServeBatchScatterGather(t *testing.T) {
	ring := cluster.NewRing([]string{"a", "b", "c"}, 0)
	var bBatches int
	peerB := fakePeer{serve: func(fwd wire.Forward) (int, []byte, error) {
		if fwd.Origin != "a" || fwd.Hops != 1 || fwd.Kind != wire.KindCoordinate {
			return 0, nil, fmt.Errorf("bad envelope %+v", fwd)
		}
		d := wire.NewDec(fwd.Body)
		req := wire.DecodeCoordinateReq(d)
		if err := d.Finish(); err != nil {
			return 0, nil, err
		}
		bBatches++
		resps := make([]api.Response, len(req.Requests))
		for i, rq := range req.Requests {
			resps[i] = api.Response{ID: rq.ID + "@b"}
		}
		var e wire.Enc
		wire.PutResponses(&e, resps)
		return 200, e.Bytes(), nil
	}}
	r := newFakeRouter(t, map[string]cluster.PeerConn{"b": peerB, "c": deadPeer{}})

	va, vb, vc := valueOwnedBy(t, ring, "a"), valueOwnedBy(t, ring, "b"), valueOwnedBy(t, ring, "c")
	reqs := []api.Request{
		{ID: "r0", Queries: []eq.Query{pinned("q0", vb)}},
		{ID: "r1", Queries: []eq.Query{pinned("q1", va)}},
		{ID: "r2", Queries: []eq.Query{pinned("q2", vc)}},
		{ID: "r3"}, // unroutable: serves locally
		{ID: "r4", Queries: []eq.Query{pinned("q4", vb)}},
	}
	var localIDs []string
	out := r.ServeBatch(context.Background(), reqs, func(_ context.Context, sub []api.Request) []api.Response {
		resps := make([]api.Response, len(sub))
		for i, rq := range sub {
			localIDs = append(localIDs, rq.ID)
			resps[i] = api.Response{ID: rq.ID + "@a"}
		}
		return resps
	})

	want := []string{"r0@b", "r1@a", "", "r3@a", "r4@b"}
	for i, w := range want {
		if w == "" {
			continue
		}
		if out[i].ID != w || out[i].Error != nil {
			t.Fatalf("out[%d] = %+v, want ID %q served cleanly", i, out[i], w)
		}
	}
	// The dead peer's request failed alone, with the typed code.
	if out[2].ID != "r2" || out[2].Error == nil || out[2].Error.Code != api.CodePeerUnavailable {
		t.Fatalf("dead-peer response %+v, want inline peer_unavailable for r2", out[2])
	}
	if len(localIDs) != 2 {
		t.Fatalf("local served %v, want exactly [r1 r3]", localIDs)
	}
	if bBatches != 1 {
		t.Fatalf("peer b served %d sub-batches, want 1 (r0 and r4 coalesced)", bBatches)
	}

	m := r.Metrics()
	if m.ForwardsSent != 2 || m.ForwardFailures != 1 || m.ScatterBatches != 1 {
		t.Fatalf("metrics %+v, want 2 forwards, 1 failure, 1 scatter batch", m)
	}
	// The batch touched 3 nodes: fan-out bucket index 2.
	if m.FanoutCounts[2] != 1 {
		t.Fatalf("fanout counts %v, want one 3-node batch", m.FanoutCounts)
	}

	// A peer that answers fewer responses than it was sent fails every
	// request of its slice with the inline internal error; the local
	// slice is still answered.
	short := fakePeer{serve: func(fwd wire.Forward) (int, []byte, error) {
		var e wire.Enc
		wire.PutResponses(&e, []api.Response{{ID: "only"}})
		return 200, e.Bytes(), nil
	}}
	r = newFakeRouter(t, map[string]cluster.PeerConn{"b": short, "c": deadPeer{}})
	out = r.ServeBatch(context.Background(), []api.Request{reqs[0], reqs[1], reqs[4]},
		func(_ context.Context, sub []api.Request) []api.Response {
			return []api.Response{{ID: sub[0].ID + "@a"}}
		})
	for _, i := range []int{0, 2} {
		if e := out[i].Error; e == nil || e.Code != api.CodeInternal || e.Message != "cluster: b returned a malformed batch reply" {
			t.Errorf("short reply: out[%d] = %+v (%v), want the inline malformed-batch-reply error", i, out[i], e)
		}
	}
	if out[1].ID != "r1@a" || out[1].Error != nil {
		t.Errorf("short reply: out[1] = %+v, want the local slice served cleanly", out[1])
	}
}

// TestServeBatchValidatesForwardedReply: a peer's batch reply is read
// like every other reply — it must decode and be consumed exactly. A
// well-formed PutResponses body followed by two stray bytes fails every
// request of that peer's slice with the inline internal error; the rest
// of the batch is unharmed.
func TestServeBatchValidatesForwardedReply(t *testing.T) {
	ring := cluster.NewRing([]string{"a", "b", "c"}, 0)
	peerB := fakePeer{serve: func(fwd wire.Forward) (int, []byte, error) {
		req := wire.DecodeCoordinateReq(wire.NewDec(fwd.Body))
		resps := make([]api.Response, len(req.Requests))
		for i, rq := range req.Requests {
			resps[i] = api.Response{ID: rq.ID + "@b"}
		}
		var e wire.Enc
		wire.PutResponses(&e, resps)
		return 200, append(e.Bytes(), 0, 0), nil
	}}
	r := newFakeRouter(t, map[string]cluster.PeerConn{"b": peerB, "c": deadPeer{}})
	va, vb := valueOwnedBy(t, ring, "a"), valueOwnedBy(t, ring, "b")
	out := r.ServeBatch(context.Background(), []api.Request{
		{ID: "r0", Queries: []eq.Query{pinned("q0", vb)}},
		{ID: "r1", Queries: []eq.Query{pinned("q1", va)}},
		{ID: "r2", Queries: []eq.Query{pinned("q2", vb)}},
	}, func(_ context.Context, sub []api.Request) []api.Response {
		return []api.Response{{ID: sub[0].ID + "@a"}}
	})
	for _, i := range []int{0, 2} {
		if e := out[i].Error; out[i].ID != "r"+strconv.Itoa(i) || e == nil || e.Code != api.CodeInternal ||
			e.Message != "cluster: b returned a malformed coordinate reply" {
			t.Errorf("out[%d] = %+v (%v), want the inline internal error for a malformed reply", i, out[i], e)
		}
	}
	if out[1].ID != "r1@a" || out[1].Error != nil {
		t.Errorf("out[1] = %+v, want the local slice served cleanly", out[1])
	}
	if m := r.Metrics(); m.ForwardsSent != 1 || m.ForwardFailures != 0 {
		t.Errorf("metrics %+v: an answered forward is not a transport failure", m)
	}
}

// BenchmarkClusterRoute measures the pure routing decision: hashing a
// batch request's pinned constants onto the ring. This is the per-call
// overhead cluster mode adds to every locally-served request.
func BenchmarkClusterRoute(b *testing.B) {
	ring := cluster.NewRing([]string{"a", "b", "c"}, 0)
	placement := map[string]int{"T": 1}
	qs := make([][]eq.Query, 64)
	for i := range qs {
		qs[i] = []eq.Query{pinned("q"+strconv.Itoa(i), eq.Value("c"+strconv.Itoa(i)))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cluster.OwnerOfQueries(ring, placement, qs[i%len(qs)]); !ok {
			b.Fatal("pinned query did not route")
		}
	}
}
