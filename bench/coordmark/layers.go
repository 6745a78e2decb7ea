package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"entangled/internal/api"
	"entangled/internal/coord"
	"entangled/internal/eq"
	"entangled/internal/unify"
	"entangled/internal/wire"
)

// layerCtx is what a workload's layer measurement works with: the
// traced closed-loop phase that just ran, the tracer that observed it,
// and the map the per-layer metrics go into.
type layerCtx struct {
	ctx    context.Context
	tr     *tracer
	in     *instance
	res    *loopResult
	tm     timing
	before []api.Metrics // per node, before the traced phase
	after  []api.Metrics
	// nested is how long the nested sample may take, replay how long
	// each standalone replay may loop.
	nested time.Duration
	replay time.Duration
	out    map[string]float64
}

// layerSource measures a workload's layers from outside: nested direct
// calls of one script cycle at successive public entry points, and
// standalone replays of the layers that have no seam.
type layerSource interface {
	measure(lc *layerCtx) error
}

func (lc *layerCtx) set(name string, v float64) { lc.out[name] = v }

// serverMetrics reads a node's /metrics through its public handler.
func serverMetrics(n *node) (api.Metrics, error) {
	var m api.Metrics
	rec := httptest.NewRecorder()
	n.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return m, fmt.Errorf("/metrics answered HTTP %d", rec.Code)
	}
	return m, json.Unmarshal(rec.Body.Bytes(), &m)
}

func snapshotNodes(in *instance) ([]api.Metrics, error) {
	out := make([]api.Metrics, len(in.nodes))
	for i, n := range in.nodes {
		m, err := serverMetrics(n)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// histogramP50 estimates the median of the observations a histogram
// gained between two snapshots, interpolating inside the bucket.
func histogramP50(before, after api.Histogram) float64 {
	n := after.Count - before.Count
	if n <= 0 {
		return 0
	}
	var seen int64
	lower := 0.0
	for i, c := range after.Counts {
		d := c
		if i < len(before.Counts) {
			d -= before.Counts[i]
		}
		upper := lower * 2
		if i < len(after.BucketsNS) {
			upper = float64(after.BucketsNS[i])
		}
		if d > 0 && float64(seen+d) >= float64(n)/2 {
			return lower + (upper-lower)*(float64(n)/2-float64(seen))/float64(d)
		}
		seen += d
		lower = upper
	}
	return lower
}

// common fills the metrics every served workload reads the same way:
// the seam aggregates of the closed-loop phase, the servers' public
// snapshots, and the process counters.
func (lc *layerCtx) common() {
	tr, res := lc.tr, lc.res
	ops := float64(res.ops)
	if ops == 0 {
		return
	}
	lc.set("db.solve_ns_per_query", tr.db.perCall())
	lc.set("db.queries_per_op", float64(tr.db.n.Load())/ops)
	events := float64(tr.join.n.Load() + tr.leave.n.Load())
	lc.set("stream.join_us", tr.join.perCall()/1e3)
	lc.set("stream.leave_us", tr.leave.perCall()/1e3)
	if events > 0 {
		lc.set("stream.dirty_per_event", float64(tr.dirty.Load())/events)
		lc.set("stream.reused_per_event", float64(tr.reused.Load())/events)
		lc.set("stream.dbq_per_event", float64(tr.evDBQ.Load())/events)
	}
	lc.set("proc.gc_cycles", float64(res.gcCycles))
	lc.set("proc.gc_pause_ms", float64(res.gcPause)/1e6)
	lc.set("cluster.xnode_msgs_per_op", res.xnodePerOp)

	var requests, batches, rejected, hits, misses int64
	var submitP50 float64
	for i := range lc.after {
		b, a := lc.before[i], lc.after[i]
		requests += a.Coordinate.Requests - b.Coordinate.Requests
		batches += a.Coordinate.Batches - b.Coordinate.Batches
		rejected += a.Coordinate.Rejected - b.Coordinate.Rejected
		if a.PlanCache != nil && b.PlanCache != nil {
			hits += a.PlanCache.Hits - b.PlanCache.Hits
			misses += a.PlanCache.Misses - b.PlanCache.Misses
		}
		if i == 0 {
			// The node the clients talk to: batch submit-to-reply when the
			// workload has batches, session post-to-reply otherwise.
			submitP50 = histogramP50(b.Coordinate.Latency, a.Coordinate.Latency)
			if submitP50 == 0 {
				submitP50 = histogramP50(b.Sessions.Latency, a.Sessions.Latency)
			}
		}
	}
	lc.set("server.submit_to_reply_us_p50", submitP50/1e3)
	if batches > 0 {
		lc.set("server.batch_factor", float64(requests)/float64(batches))
	}
	lc.set("server.rejected", float64(rejected))
	if hits+misses > 0 {
		lc.set("db.plan_hit_rate", float64(hits)/float64(hits+misses))
	}
	var accepted, expected int64
	for _, n := range lc.in.nodes {
		if n.httpLn != nil {
			accepted += n.httpLn.accepted.Load()
			expected += conns
		} else if len(lc.in.nodes) == 1 {
			accepted += n.wireLn.accepted.Load()
			expected += conns
		}
	}
	if accepted > expected {
		lc.set("client.redials", float64(accepted-expected))
	}
}

// --- timing helpers ---------------------------------------------------

// timeLoop calls f repeatedly for about d (at least once) and returns
// the mean duration of one call.
func timeLoop(d time.Duration, f func()) time.Duration {
	start := time.Now()
	n := 0
	for {
		f()
		n++
		if el := time.Since(start); el >= d {
			return el / time.Duration(n)
		}
	}
}

// mallocsOf counts the heap allocations one call of f makes (other
// goroutines are idle while the replays run).
func mallocsOf(f func()) float64 {
	var a, b runtime.MemStats
	const runs = 4
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / runs
}

// level accumulates the spans of one entry point across the nested
// sample. Layers are compared by totals (means), not medians: the calls
// of a script differ in size, and only sums nest — an outer level's
// total minus its inner level's total is the outer layer's self time.
type level struct {
	n   int
	sum time.Duration
}

func (l *level) add(d time.Duration) {
	l.n++
	l.sum += d
}

// us is the level's total in microseconds.
func (l level) us() float64 { return float64(l.sum) / 1e3 }

// mean is the mean span in microseconds.
func (l level) mean() float64 {
	if l.n == 0 {
		return 0
	}
	return l.us() / float64(l.n)
}

// nestedSample runs pass — one cycle of the script at every entry
// point — again and again until the nested budget is spent (at least
// once), as the sampling run: one P, so a span's children never overlap
// and self time is span minus children exactly, with the seams
// recording parent-linked spans. Every pass adds to the levels; only
// the first pass's spans are kept for the trace file.
func (lc *layerCtx) nestedSample(pass func() error) error {
	prev := runtime.GOMAXPROCS(1)
	lc.tr.setSampling(true)
	lc.tr.on.Store(true)
	defer func() {
		lc.tr.on.Store(false)
		lc.tr.setSampling(false)
		runtime.GOMAXPROCS(prev)
	}()
	start := time.Now()
	keep := -1
	for {
		if err := pass(); err != nil {
			return err
		}
		if keep < 0 {
			keep = lc.tr.spanCount()
		}
		lc.tr.truncateSpans(keep)
		if time.Since(start) >= lc.nested {
			return nil
		}
	}
}

// meanLatency is the mean client-observed call latency of the traced
// closed-loop phase, in microseconds.
func (lc *layerCtx) meanLatency() float64 {
	var sum, n float64
	for _, recs := range lc.res.recs {
		for _, r := range recs {
			sum += float64(r.lat) / 1e3
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// unattributed reports the share of the closed loop's mean call latency
// that the sequential sample's spans do not cover: what two callers
// sharing the machine add on top of the layers' own time.
func (lc *layerCtx) unattributed(client level) {
	if m := lc.meanLatency(); m > 0 {
		lc.set("trace.unattributed_share", 1-client.mean()/m)
	}
}

// span runs f inside a named span and returns the span's id and
// duration.
func (lc *layerCtx) span(name string, f func() error) (int, time.Duration, error) {
	id := lc.tr.begin(name)
	err := f()
	return id, lc.tr.end(id), err
}

// pipeListener hands ServeWire the server ends of in-memory pipes.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
}

func (p *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-p.conns:
		return c, nil
	case <-p.done:
		return nil, net.ErrClosed
	}
}

func (p *pipeListener) Close() error {
	select {
	case <-p.done:
	default:
		close(p.done)
	}
	return nil
}

func (p *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// dialPipe connects a binary-protocol client to the node's ServeWire
// over net.Pipe: the server's whole binary path, no kernel TCP.
func dialPipe(n *node) (*wire.ClientConn, func()) {
	pl := newPipeListener()
	go n.srv.ServeWire(pl)
	c1, c2 := net.Pipe()
	pl.conns <- c2
	cc := wire.NewClientConn(c1, nil)
	return cc, func() {
		cc.Close()
		pl.Close()
	}
}

// --- standalone replays: layers with no seam ----------------------------

// exchange is one call's request and response DTOs, captured by driving
// the server's handler once.
type exchange struct {
	o    *op
	resp []api.Response // batch
	up   api.Update     // session event
}

// captureExchanges runs the sample once through the HTTP handler of the
// node and keeps every response DTO (a whole cycle, so session state
// returns to where it was).
func captureExchanges(h http.Handler, sample []*op, tenantOf func(*op) string) ([]exchange, error) {
	out := make([]exchange, len(sample))
	for i, o := range sample {
		r, err := httpRequest(o, tenantOf(o))
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code >= 300 {
			return nil, fmt.Errorf("capturing call %d: HTTP %d: %s", i, rec.Code, rec.Body.String())
		}
		out[i].o = o
		if o.kind == opBatch {
			var cr api.CoordinateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
				return nil, err
			}
			out[i].resp = cr.Responses
		} else if err := json.Unmarshal(rec.Body.Bytes(), &out[i].up); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func noTenant(*op) string { return "" }

func totalOps(xs []exchange) float64 {
	n := 0
	for _, x := range xs {
		n += x.o.n
	}
	return float64(n)
}

// replayAPI times the HTTP/JSON codec on the sample's payloads: both
// directions of both messages, as client and server each do one.
func (lc *layerCtx) replayAPI(xs []exchange) {
	reqDTO := func(o *op) any {
		switch o.kind {
		case opBatch:
			return api.CoordinateRequest{Requests: o.reqs}
		case opJoin:
			return api.JoinRequest{Query: o.query}
		}
		return api.LeaveRequest{ID: o.id}
	}
	respDTO := func(x exchange) any {
		if x.o.kind == opBatch {
			return api.CoordinateResponse{Responses: x.resp}
		}
		return x.up
	}
	type encoded struct{ req, resp []byte }
	enc := make([]encoded, len(xs))
	var bytesTotal, queries int
	encode := func() {
		for i, x := range xs {
			enc[i].req, _ = json.Marshal(reqDTO(x.o))
			enc[i].resp, _ = json.Marshal(respDTO(x))
		}
	}
	encode()
	for i, x := range xs {
		bytesTotal += len(enc[i].req) + len(enc[i].resp)
		for _, r := range x.o.reqs {
			queries += len(r.Queries)
		}
		if x.o.kind == opJoin {
			queries++
		}
	}
	decode := func() {
		for i, x := range xs {
			switch x.o.kind {
			case opBatch:
				var rq api.CoordinateRequest
				var rs api.CoordinateResponse
				_ = json.Unmarshal(enc[i].req, &rq)
				_ = json.Unmarshal(enc[i].resp, &rs)
			case opJoin:
				var rq api.JoinRequest
				var up api.Update
				_ = json.Unmarshal(enc[i].req, &rq)
				_ = json.Unmarshal(enc[i].resp, &up)
			default:
				var rq api.LeaveRequest
				var up api.Update
				_ = json.Unmarshal(enc[i].req, &rq)
				_ = json.Unmarshal(enc[i].resp, &up)
			}
		}
	}
	ops := totalOps(xs)
	lc.set("api.encode_ns_per_op", float64(timeLoop(lc.replay, encode))/ops)
	lc.set("api.decode_ns_per_op", float64(timeLoop(lc.replay, decode))/ops)
	lc.set("api.bytes_per_op", float64(bytesTotal)/ops)
	lc.set("api.allocs_per_op", (mallocsOf(encode)+mallocsOf(decode))/ops)

	// eq: the query JSON form alone, both directions.
	var qs []eq.Query
	for _, x := range xs {
		for _, r := range x.o.reqs {
			qs = append(qs, r.Queries...)
		}
		if x.o.kind == opJoin {
			qs = append(qs, x.o.query)
		}
	}
	if len(qs) > 0 {
		d := timeLoop(lc.replay, func() {
			for _, q := range qs {
				b, _ := json.Marshal(q)
				var back eq.Query
				_ = json.Unmarshal(b, &back)
			}
		})
		lc.set("eq.json_ns_per_query", float64(d)/float64(len(qs)))
	}
}

// replayWire times the binary codec on the sample's payloads.
func (lc *layerCtx) replayWire(xs []exchange) {
	type encoded struct{ req, resp []byte }
	enc := make([]encoded, len(xs))
	var e wire.Enc
	put := func(f func(*wire.Enc)) []byte {
		e.Reset(nil)
		f(&e)
		return e.Bytes()
	}
	encode := func() {
		for i, x := range xs {
			switch x.o.kind {
			case opBatch:
				enc[i].req = put(wire.CoordinateReq{Requests: x.o.reqs}.Encode)
				enc[i].resp = put(func(e *wire.Enc) { wire.PutResponses(e, x.resp) })
			case opJoin:
				enc[i].req = put(wire.JoinReq{Session: x.o.session, Query: x.o.query}.Encode)
				enc[i].resp = put(func(e *wire.Enc) { wire.PutUpdate(e, x.up) })
			default:
				enc[i].req = put(wire.LeaveReq{Session: x.o.session, QueryID: x.o.id}.Encode)
				enc[i].resp = put(func(e *wire.Enc) { wire.PutUpdate(e, x.up) })
			}
		}
	}
	encode()
	bytesTotal := 0
	for i := range enc {
		bytesTotal += len(enc[i].req) + len(enc[i].resp)
	}
	decode := func() {
		for i, x := range xs {
			rq, rs := wire.NewDec(enc[i].req), wire.NewDec(enc[i].resp)
			switch x.o.kind {
			case opBatch:
				wire.DecodeCoordinateReq(rq)
				wire.GetResponses(rs)
			case opJoin:
				wire.DecodeJoinReq(rq)
				wire.GetUpdate(rs)
			default:
				wire.DecodeLeaveReq(rq)
				wire.GetUpdate(rs)
			}
		}
	}
	ops := totalOps(xs)
	lc.set("wire.encode_ns_per_op", float64(timeLoop(lc.replay, encode))/ops)
	lc.set("wire.decode_ns_per_op", float64(timeLoop(lc.replay, decode))/ops)
	lc.set("wire.bytes_per_op", float64(bytesTotal)/ops)
	lc.set("wire.allocs_per_op", (mallocsOf(encode)+mallocsOf(decode))/ops)
}

// replayUnifyGraph times, per operation, the unifier of all the query
// set's (postcondition, head) pairs and the condensation of its
// coordination graph — the two parts of coord that have no seam.
func (lc *layerCtx) replayUnifyGraph(sets [][]eq.Query) {
	if len(sets) == 0 {
		return
	}
	type prepared struct {
		pairs [][2]eq.Atom
	}
	prep := make([]prepared, len(sets))
	for i, qs := range sets {
		renamed := make([]eq.Query, len(qs))
		for j, q := range qs {
			renamed[j] = q.Rename("q" + fmt.Sprint(j) + ".")
		}
		for _, e := range coord.ExtendedGraph(qs) {
			prep[i].pairs = append(prep[i].pairs, [2]eq.Atom{renamed[e.FromQ].Post[e.PostIdx], renamed[e.ToQ].Head[e.HeadIdx]})
		}
	}
	d := timeLoop(lc.replay, func() {
		for _, p := range prep {
			_, _ = unify.MGU(p.pairs)
		}
	})
	lc.set("unify.mgu_ns_per_op", float64(d)/float64(len(sets)))
	d = timeLoop(lc.replay, func() {
		for _, qs := range sets {
			coord.ComponentsOf(qs)
		}
	})
	lc.set("graph.condense_ns_per_op", float64(d)/float64(len(sets)))
}
