package main

import (
	"net/http"

	"entangled/internal/admission"
	"entangled/internal/consistent"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/stream"
	"entangled/internal/workload"
)

// scriptOf returns worker w's script as op pointers: the nested sample
// is one whole cycle of it, so session state returns to where it was.
func scriptOf(w *worker) []*op {
	out := make([]*op, len(w.script))
	for i := range w.script {
		out[i] = &w.script[i]
	}
	return out
}

// --- batch workloads ------------------------------------------------------

type batchLayers struct {
	n    *node
	http bool
}

// measure nests one cycle's calls at four entry points — the client
// over the socket, the server's handler without a socket, the engine,
// and coord per request — with the store seam underneath.
func (b *batchLayers) measure(lc *layerCtx) error {
	lc.common()
	n, ctx := b.n, lc.ctx
	w := lc.in.workers[0]
	sample := scriptOf(w)
	cc, closePipe := dialPipe(n)
	defer closePipe()

	var lClient, lServer, lEngine, lCoord, lDB level
	var dbq, team, queries, routed int64
	// One entry point at a time over the whole cycle, not one call at a
	// time over the entry points: the collector runs every few calls,
	// and interleaving the levels would let its period alias with them.
	err := lc.nestedSample(func() error {
		for _, o := range sample {
			lc.tr.nextOp()
			_, d, err := lc.span("client", func() error {
				_, err := w.exec(ctx, o)
				return err
			})
			if err != nil {
				return err
			}
			lClient.add(d)
		}
		for _, o := range sample {
			lc.tr.nextOp()
			var r *http.Request
			if b.http {
				var err error
				if r, err = httpRequest(o, ""); err != nil {
					return err
				}
			}
			_, d, err := lc.span("server", func() error {
				if b.http {
					return execHandler(n.srv, r)
				}
				return execWire(ctx, cc, o)
			})
			if err != nil {
				return err
			}
			lServer.add(d)
		}
		for _, o := range sample {
			lc.tr.nextOp()
			reqs := engineRequests(o)
			_, d, _ := lc.span("engine", func() error {
				n.engine.CoordinateMany(ctx, reqs)
				return nil
			})
			lEngine.add(d)
		}
		for _, o := range sample {
			lc.tr.nextOp()
			for _, rq := range o.reqs {
				// The store the engine would run the request against:
				// the single shard it pins, when it pins one.
				store := n.store
				if rt, ok := store.(db.Router); ok {
					if view, ok := rt.Route(rq.Queries); ok {
						store = view
						routed++
					}
				}
				var res *coord.Result
				id, d, err := lc.span("coord", func() error {
					var err error
					res, err = coord.SCCCoordinate(rq.Queries, store, coord.Options{})
					return err
				})
				if err != nil {
					return err
				}
				lCoord.add(d)
				lDB.add(lc.tr.childTime(id, "db"))
				queries += int64(len(rq.Queries))
				if res != nil {
					dbq += res.DBQueries
					team += int64(len(res.Set))
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	calls, ops := float64(lClient.n), float64(lCoord.n)
	lc.set("client.self_us_per_call", (lClient.us()-lServer.us())/calls)
	lc.set("server.handler_self_us_per_call", (lServer.us()-lEngine.us())/calls)
	lc.set("engine.many_us_per_op", lEngine.us()/ops)
	lc.set("engine.self_us_per_op", (lEngine.us()-lCoord.us())/ops)
	lc.set("engine.routed_share", float64(routed)/ops)
	lc.set("coord.scc_us_per_op", lCoord.us()/ops)
	lc.set("coord.self_us_per_op", (lCoord.us()-lDB.us())/ops)
	lc.set("coord.dbq_per_op", float64(dbq)/ops)
	lc.set("coord.team_share", float64(team)/float64(queries))
	lc.set("db.busy_share", lDB.us()/lCoord.us())
	lc.unattributed(lClient)

	xs, err := captureExchanges(n.srv, sample, noTenant)
	if err != nil {
		return err
	}
	if b.http {
		lc.replayAPI(xs)
	} else {
		lc.replayWire(xs)
	}
	var sets [][]eq.Query
	for _, o := range sample {
		for _, rq := range o.reqs {
			sets = append(sets, rq.Queries)
		}
	}
	lc.replayUnifyGraph(sets)
	return nil
}

// --- session workloads ------------------------------------------------------

type sessionLayers struct {
	n       *node
	plans   [][]sessionPlan
	durable bool
}

// replicaSession builds a stream.Session over the node's store with the
// plan's standing population, for driving the stream layer directly.
func replicaSession(n *node, p sessionPlan) (*stream.Session, error) {
	sess := n.engine.NewSession(stream.Options{})
	for _, o := range p.cs.warmOps() {
		if _, err := sess.Apply(streamEvent(&o)); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// streamLevel applies one event directly to a replica session inside a
// "stream" span, adding the span and the store time inside it to the
// levels, and reports whether the event triggered a slot compaction
// (seen from outside as the tombstone count falling).
func (lc *layerCtx) streamLevel(sess *stream.Session, o *op, lStream, lDB *level) (compacted bool, err error) {
	before := sess.Tombstones()
	id, d, err := lc.span("stream", func() error {
		_, err := sess.Apply(streamEvent(o))
		return err
	})
	if err != nil {
		return false, err
	}
	lStream.add(d)
	lDB.add(lc.tr.childTime(id, "db"))
	return sess.Tombstones() < before, nil
}

// chainsOf lists each chain of the plans as a query set: an event's
// dirty region lies inside the chain it touches.
func chainsOf(plans []sessionPlan) [][]eq.Query {
	var sets [][]eq.Query
	for _, p := range plans {
		for j := range p.cs.ids {
			chain := make([]eq.Query, chainLen)
			for i := range chain {
				chain[i] = p.cs.query(j, i)
			}
			sets = append(sets, chain)
		}
	}
	return sets
}

// measure nests one cycle's events at three entry points — the client
// over the socket, ServeWire over an in-memory pipe (both on the live
// session, whose state a whole cycle restores), and stream.Session
// directly on a replica — with the store and filesystem seams
// underneath.
func (s *sessionLayers) measure(lc *layerCtx) error {
	lc.common()
	n, ctx := s.n, lc.ctx
	w := lc.in.workers[0]
	plan := s.plans[0][0]
	sample := scriptOf(w)
	cc, closePipe := dialPipe(n)
	defer closePipe()
	replica, err := replicaSession(n, plan)
	if err != nil {
		return err
	}

	var lClient, lServer, lPersist, lStream, lDB, warm level
	compactions, cycles := 0, 0
	// A warm cycle on the replica first, so that like the live session
	// it has been through a compaction.
	for _, o := range sample {
		if _, err := lc.streamLevel(replica, o, &warm, &warm); err != nil {
			return err
		}
	}
	err = lc.nestedSample(func() error {
		for _, o := range sample {
			lc.tr.nextOp()
			_, d, err := lc.span("client", func() error {
				_, err := w.exec(ctx, o)
				return err
			})
			if err != nil {
				return err
			}
			lClient.add(d)
		}
		for _, o := range sample {
			lc.tr.nextOp()
			id, d, err := lc.span("server", func() error { return execWire(ctx, cc, o) })
			if err != nil {
				return err
			}
			lServer.add(d)
			lPersist.add(lc.tr.childTime(id, "persist.write") + lc.tr.childTime(id, "persist.fsync"))
		}
		for _, o := range sample {
			lc.tr.nextOp()
			compacted, err := lc.streamLevel(replica, o, &lStream, &lDB)
			if err != nil {
				return err
			}
			if compacted {
				compactions++
			}
		}
		cycles++
		return nil
	})
	if err != nil {
		return err
	}
	calls := float64(lClient.n)
	lc.set("client.self_us_per_call", (lClient.us()-lServer.us())/calls)
	lc.set("server.handler_self_us_per_call", (lServer.us()-lStream.us()-lPersist.us())/calls)
	lc.set("stream.self_us_per_event", (lStream.us()-lDB.us())/calls)
	lc.set("persist.self_us_per_event", lPersist.us()/calls)
	lc.set("stream.compactions", float64(compactions)/float64(cycles))
	lc.set("db.busy_share", lDB.us()/lStream.us())
	lc.unattributed(lClient)

	if s.durable {
		events := float64(lc.tr.join.n.Load() + lc.tr.leave.n.Load())
		payload := float64(lc.after[0].Persist.SessionBytes - lc.before[0].Persist.SessionBytes)
		lc.set("persist.append_us", lc.tr.fsWrite.perCall()/1e3)
		lc.set("persist.fsync_us", lc.tr.fsSync.perCall()/1e3)
		if events > 0 {
			lc.set("persist.fsyncs_per_event", float64(lc.tr.fsSync.n.Load())/events)
			lc.set("persist.bytes_per_event", float64(lc.tr.fsBytes.Load())/events)
		}
		if payload > 0 {
			lc.set("persist.write_amp", float64(lc.tr.fsBytes.Load())/payload)
		}
	}

	xs, err := captureExchanges(n.srv, sample, noTenant)
	if err != nil {
		return err
	}
	lc.replayWire(xs)
	lc.replayUnifyGraph(chainsOf(s.plans[0]))
	return nil
}

// --- cluster workload -------------------------------------------------------

type clusterLayers struct {
	edge    *node
	tenants []workload.TenantLoad
	plans   [][]sessionPlan
}

// measure nests one cycle's calls at three entry points — the tenant
// clients over HTTP, the edge node's handler on a recorder (forward
// hops and scatter still cross real loopback connections to the
// owners), and the layer underneath directly: stream.Session on a
// replica for an event, engine.CoordinateMany for a batch. The hop's
// cost is the difference between forwarded and locally owned events at
// the handler.
func (c *clusterLayers) measure(lc *layerCtx) error {
	lc.common()
	ctx, edge := lc.ctx, c.edge
	w := lc.in.workers[0]
	sample := scriptOf(w)
	tenantOf := func(o *op) string { return c.tenants[o.cli].Name }

	// What the clients saw in the closed loop: forward cost and share.
	var local, fwd []float64
	for wi, recs := range lc.res.recs {
		for _, r := range recs {
			switch o := &lc.in.workers[wi].script[r.idx]; {
			case o.kind == opBatch:
			case o.forwarded:
				fwd = append(fwd, float64(r.lat)/1e3)
			default:
				local = append(local, float64(r.lat)/1e3)
			}
		}
	}
	lc.set("cluster.forward_us", median(fwd)-median(local))
	lc.set("cluster.forwarded_share", float64(len(fwd))/float64(len(fwd)+len(local)))
	var scatters, fanSum, failures int64
	for i := range lc.after {
		b, a := lc.before[i].Cluster, lc.after[i].Cluster
		failures += a.ForwardFailures - b.ForwardFailures
		for k, v := range a.FanoutCounts {
			d := v
			if k < len(b.FanoutCounts) {
				d -= b.FanoutCounts[k]
			}
			scatters += d
			fanSum += d * int64(k+1)
		}
	}
	if scatters > 0 {
		lc.set("cluster.scatter_fanout_mean", float64(fanSum)/float64(scatters))
	}
	lc.set("cluster.forward_failures", float64(failures))
	var throttled int64
	for _, n := range lc.in.nodes {
		for _, t := range n.adm.Snapshot() {
			throttled += t.Throttled()
		}
	}
	lc.set("admission.throttled", float64(throttled))

	replicas := map[string]*stream.Session{}
	for _, p := range c.plans[0] {
		sess, err := replicaSession(edge, p)
		if err != nil {
			return err
		}
		replicas[p.cs.session] = sess
	}
	var lClient, lServer, lInner, lDB, srvLocal, srvFwd level
	err := lc.nestedSample(func() error {
		for _, o := range sample {
			lc.tr.nextOp()
			_, d, err := lc.span("client", func() error {
				_, err := w.exec(ctx, o)
				return err
			})
			if err != nil {
				return err
			}
			lClient.add(d)
		}
		for _, o := range sample {
			lc.tr.nextOp()
			r, err := httpRequest(o, tenantOf(o))
			if err != nil {
				return err
			}
			_, d, err := lc.span("server", func() error { return execHandler(edge.srv, r) })
			if err != nil {
				return err
			}
			lServer.add(d)
			switch {
			case o.kind == opBatch:
			case o.forwarded:
				srvFwd.add(d)
			default:
				srvLocal.add(d)
			}
		}
		for _, o := range sample {
			lc.tr.nextOp()
			if o.kind == opBatch {
				reqs := engineRequests(o)
				_, d, _ := lc.span("engine", func() error {
					edge.engine.CoordinateMany(ctx, reqs)
					return nil
				})
				lInner.add(d)
				continue
			}
			if _, err := lc.streamLevel(replicas[o.session], o, &lInner, &lDB); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	calls := float64(lClient.n)
	hop := (srvFwd.mean() - srvLocal.mean()) * float64(srvFwd.n) // total µs spent on forward hops
	lc.set("client.self_us_per_call", (lClient.us()-lServer.us())/calls)
	lc.set("cluster.hop_self_us_per_call", hop/calls)
	lc.set("server.handler_self_us_per_call", (lServer.us()-lInner.us()-hop)/calls)
	lc.set("stream.self_us_per_event", lInner.us()/calls)
	lc.unattributed(lClient)

	// Standalone: the routing decision and the admission bookkeeping.
	var names []string
	for _, p := range c.plans[0] {
		names = append(names, p.cs.session)
	}
	d := timeLoop(lc.replay, func() {
		for _, name := range names {
			edge.router.Owner(name)
		}
	})
	lc.set("cluster.route_ns", float64(d)/float64(len(names)))
	ctl := admission.NewController(*tenantConfig(c.tenants))
	d = timeLoop(lc.replay, func() {
		for _, t := range c.tenants {
			if ctl.Decide(admission.Tenant(t.Name)) == nil {
				ctl.Done(admission.Tenant(t.Name), 3)
			}
		}
	})
	lc.set("admission.decide_done_ns", float64(d)/float64(len(c.tenants)))

	xs, err := captureExchanges(edge.srv, sample, tenantOf)
	if err != nil {
		return err
	}
	lc.replayAPI(xs)
	// The forward hop speaks the binary protocol: its codec cost on the
	// forwarded events.
	var fx []exchange
	for _, x := range xs {
		if x.o.forwarded {
			fx = append(fx, x)
		}
	}
	lc.replayWire(fx)
	lc.replayUnifyGraph(chainsOf(c.plans[0]))
	return nil
}

// --- consistent workload ------------------------------------------------------

type consistentLayers struct {
	script []op
}

func (c *consistentLayers) measure(lc *layerCtx) error {
	lc.set("proc.gc_cycles", float64(lc.res.gcCycles))
	lc.set("proc.gc_pause_ms", float64(lc.res.gcPause)/1e6)
	var l level
	var dbq int64
	err := lc.nestedSample(func() error {
		for i := range c.script {
			o := &c.script[i]
			lc.tr.nextOp()
			var res *consistent.Result
			_, d, err := lc.span("consistent", func() error {
				var err error
				res, err = consistent.Coordinate(o.cons.sch, o.cons.qs, o.cons.inst, consistent.Options{})
				return err
			})
			if err != nil {
				return err
			}
			l.add(d)
			if res != nil {
				dbq += res.DBQueries
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lc.set("consistent.coordinate_ms", l.mean()/1e3)
	lc.set("consistent.dbq_per_op", float64(dbq)/float64(l.n))
	return nil
}
