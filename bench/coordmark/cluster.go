package main

import (
	"context"
	"fmt"
	"net"
	"strconv"

	"entangled/internal/admission"
	"entangled/internal/client"
	"entangled/internal/cluster"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

// cluster3_tenants_http sizes.
const (
	clusterNodes     = 3
	clusterShards    = 2
	clusterRows      = 2000
	clusterTenants   = 4
	clusterPerOwner  = 4 // sessions owned by each node
	clusterChains    = 2 // chains per session: 32 live queries
	clusterBatchReqs = 8
	// One 8-request batch after every 24 session events: a quarter of
	// the operations are batch requests.
	clusterEventsPerBatch = 24
)

// clusterEdge is the node the client talks to; it owns a third of the
// sessions, so two thirds of the session events forward one hop.
const clusterEdge = "n1"

// tenantConfig is the policy every node runs: weighted-fair dispatch,
// an in-flight cap no caller reaches, no rate limit, and a DBQueries
// budget nothing can exhaust — so every admission decision does its
// full work (both buckets, the clock, the in-flight slot) and none
// refuses. A faster build therefore cannot start failing operations.
func tenantConfig(tenants []workload.TenantLoad) *admission.Config {
	cfg := &admission.Config{Tenants: map[string]admission.Policy{}}
	for i, t := range tenants {
		cfg.Tenants[t.Name] = admission.Policy{
			MaxInFlight:     64,
			DBQueriesPerSec: 1e12,
			DBQueriesBurst:  1e15,
			Weight:          len(tenants) - i,
		}
	}
	return cfg
}

// tenantSequence spreads the tenants over a repeating sequence in
// proportion to their Zipf request rates, hottest first within a round.
func tenantSequence(tenants []workload.TenantLoad) []int {
	total := 0
	for _, t := range tenants {
		total += t.Requests
	}
	credit := make([]int, len(tenants))
	seq := make([]int, 0, total)
	for len(seq) < total {
		best := 0
		for i, t := range tenants {
			credit[i] += t.Requests
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= total
		seq = append(seq, best)
	}
	return seq
}

func buildCluster(e env) (*instance, error) {
	in := &instance{}
	tenants := workload.Tenants(clusterTenants, shapeSeed)

	// Static membership over loopback listeners, as examples/cluster
	// boots it.
	var members []cluster.Node
	lns := make([]net.Listener, clusterNodes)
	names := make([]string, clusterNodes)
	for i := range lns {
		ln, err := listenLoopback()
		if err != nil {
			return in, err
		}
		lns[i] = ln
		names[i] = "n" + strconv.Itoa(i+1)
		members = append(members, cluster.Node{Name: names[i], Addr: ln.Addr().String()})
	}
	for i, name := range names {
		n, err := bootNode(nodeConfig{
			shards: clusterShards, rows: clusterRows, http: name == clusterEdge,
			membership: members, self: name, wireLn: lns[i],
			admission: tenantConfig(tenants), tr: e.tr,
		})
		if err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			return in, err
		}
		in.nodes = append(in.nodes, n)
		in.onClose(n.stop)
	}
	edge := in.nodes[0]

	// Session names: the first clusterPerOwner names each node owns,
	// searched from a seed-chosen start.
	ring := cluster.NewRing(names, cluster.DefaultVNodes)
	rng := e.rng(5)
	owned := map[string][]string{}
	for k := rng.Intn(1 << 20); len(owned[names[0]])+len(owned[names[1]])+len(owned[names[2]]) < clusterNodes*clusterPerOwner; k++ {
		name := "s" + strconv.Itoa(k)
		if o := ring.Owner(name); len(owned[o]) < clusterPerOwner {
			owned[o] = append(owned[o], name)
		}
	}

	hcs := in.newHTTPClients()
	seq := tenantSequence(tenants)
	base := rng.Intn(clusterRows - clusterNodes*clusterPerOwner*clusterChains)
	values := rng.Perm(clusterRows)
	plans := make([][]sessionPlan, conns)
	create := make([]*client.Client, conns)
	next := 0 // position in the tenant sequence
	chain := base
	vi := 0
	for w := 0; w < conns; w++ {
		// One typed client per tenant, all over the worker's single
		// connection (the worker has one call in flight).
		clients := make([]*client.Client, len(tenants))
		for t, tl := range tenants {
			c, err := client.New(edge.httpURL, client.Options{Tenant: tl.Name, HTTPClient: hcs[w]})
			if err != nil {
				return in, err
			}
			clients[t] = c
		}
		create[w] = clients[0]
		// This worker's sessions: half of each owner's.
		var scripts [][]op
		for _, name := range names {
			half := clusterPerOwner / conns
			for _, s := range owned[name][w*half : (w+1)*half] {
				p, err := planSession(s, chain, clusterChains, clusterRows, 0)
				if err != nil {
					return in, err
				}
				chain += clusterChains
				for i := range p.script {
					p.script[i].forwarded = name != clusterEdge
				}
				plans[w] = append(plans[w], p)
				scripts = append(scripts, p.script)
			}
		}
		// Interleave the sessions event by event, and put one scattered
		// batch after every clusterEventsPerBatch events.
		var script []op
		var xnode int64 // cross-node messages one cycle must cost, exactly
		events := 0
		for i := 0; i < len(scripts[0]); i++ {
			for _, s := range scripts {
				o := s[i]
				o.cli = seq[next%len(seq)]
				next++
				if o.forwarded {
					xnode++
				}
				script = append(script, o)
				if events++; events%clusterEventsPerBatch == 0 {
					t := seq[next%len(seq)]
					next++
					reqs := make([]client.Request, clusterBatchReqs)
					remote := map[string]bool{}
					for r := range reqs {
						at := values[vi%len(values)]
						vi++
						reqs[r] = client.Request{ID: "b" + strconv.Itoa(at), Queries: workload.ListQueriesAt(tenants[t].Queries, at)}
						if o := ring.OwnerOfValue(eq.Value("c" + strconv.Itoa(at))); o != clusterEdge {
							remote[o] = true
						}
					}
					xnode += int64(len(remote))
					script = append(script, op{kind: opBatch, cli: t, reqs: reqs, n: len(reqs)})
				}
			}
		}
		in.workers = append(in.workers, &worker{script: script, exec: clientExec(clients), xnodePerCycle: xnode})
	}
	ctx := context.Background()
	if err := warmSessions(ctx, in.workers, create, plans); err != nil {
		return in, err
	}

	in.xnodeMsgs = func() int64 {
		var sent int64
		for _, n := range in.nodes {
			sent += n.router.Metrics().ForwardsSent
		}
		return sent
	}
	// The single-node reference every answer is compared with.
	ref := workload.NewStore(clusterShards, clusterRows, 0)
	in.batchChecks(&node{store: ref})
	in.check = func(ctx context.Context) error {
		for w, ps := range plans {
			for _, p := range ps {
				if err := checkSessionStatus(ctx, create[w], ref, p); err != nil {
					return err
				}
			}
		}
		var recv, failures int64
		for _, n := range in.nodes {
			m := n.router.Metrics()
			recv += m.ForwardsReceived
			failures += m.ForwardFailures + m.RouteMoved
			if n != edge && m.ForwardsSent != 0 {
				return fmt.Errorf("node %s forwarded %d requests; forwards must be terminal", m.Self, m.ForwardsSent)
			}
			for _, t := range n.adm.Snapshot() {
				if t.Throttled() != 0 {
					return fmt.Errorf("node %s throttled tenant %s %d times; the policy must never refuse", m.Self, t.Tenant, t.Throttled())
				}
			}
		}
		if sent := in.xnodeMsgs(); failures != 0 || recv != sent {
			return fmt.Errorf("cluster forwarded %d, received %d, failed or re-routed %d", sent, recv, failures)
		}
		return nil
	}
	in.layers = &clusterLayers{edge: edge, tenants: tenants, plans: plans}
	return in, nil
}
