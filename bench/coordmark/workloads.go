package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"strconv"

	"entangled/internal/client"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

// Workload sizes. They are frozen: changing one changes what every
// later comparison is measured on. See bench/README.md for why each
// was chosen.
const (
	// batch_http_small / batch_binary_large: one node, 4-shard store.
	batchShards = 4
	batchRows   = 20000
	smallReqs   = 16 // requests per call
	smallSize   = 8  // queries per request
	smallCalls  = 16 // calls per worker per cycle
	largeSize   = 100
	largeCalls  = 8
	largeShapes = 4 // frozen scale-free and random-safe shapes each
	// session_mem_churn: one session per connection, 16 chains of 16.
	churnChains = 16
	// session_durable_fsync: 8 sessions of one chain, 8 pipelined
	// callers over the 2 connections; small table so that seeding it
	// under fsync=always stays a fraction of a second.
	durableSessions = 8
	durableRows     = 1000
	durableSkewRows = 120
)

// workloadSpec declares one workload: its handle, the fixed tail
// percentile its latency_tail_us reports, and how to build it. Why each
// exists is in BENCHMARK.json and bench/README.md.
type workloadSpec struct {
	name  string
	tail  float64
	build func(env) (*instance, error)
}

var workloads = []workloadSpec{
	{"batch_http_small", 0.98, buildBatchHTTPSmall},
	{"batch_binary_large", 0.95, buildBatchBinaryLarge},
	{"session_mem_churn", 0.99, buildSessionMemChurn},
	{"session_durable_fsync", 0.99, buildSessionDurable},
	{"cluster3_tenants_http", 0.99, buildCluster},
	{"consistent_inproc", 0.95, buildConsistent},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// instance is one set-up workload: servers booted, connections dialled,
// sessions at their standing population, ready for the script.
type instance struct {
	workers []*worker
	nodes   []*node
	// verifyOp fully checks one op's output against an independent
	// in-process computation and returns its outcome; warm-up runs it on
	// every op of the script and pins op.want. Nil means the plain
	// execution's outcome is pinned (session events: their outputs are
	// checked through the final status instead).
	verifyOp func(ctx context.Context, w *worker, o *op) (outcome, error)
	// check runs the end-of-run output checks.
	check func(ctx context.Context) error
	// xnodeMsgs reads the cross-node message count so far.
	xnodeMsgs func() int64
	closers   []func()
	layers    layerSource
	durable   *durableState
}

func (in *instance) close() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
}

func (in *instance) onClose(f func()) { in.closers = append(in.closers, f) }

// newClients dials one typed client per connection. Over HTTP each
// gets its own single-connection http.Client.
func (in *instance) newClients(n *node, useHTTP bool, hcs []*http.Client) ([]*client.Client, error) {
	out := make([]*client.Client, conns)
	for i := range out {
		url, opts := n.wireURL, client.Options{}
		if useHTTP {
			url, opts.HTTPClient = n.httpURL, hcs[i]
		}
		c, err := client.New(url, opts)
		if err != nil {
			return nil, err
		}
		in.onClose(func() { c.Close() })
		out[i] = c
	}
	return out, nil
}

func (in *instance) newHTTPClients() []*http.Client {
	hcs := make([]*http.Client, conns)
	for i := range hcs {
		hc := newHTTPClient()
		in.onClose(func() { closeHTTPClient(hc) })
		hcs[i] = hc
	}
	return hcs
}

// bootSingle boots the one-node server the batch and session workloads
// share.
func (in *instance) bootSingle(cfg nodeConfig) (*node, error) {
	n, err := bootNode(cfg)
	if err != nil {
		return nil, err
	}
	in.nodes = append(in.nodes, n)
	in.onClose(n.stop)
	return n, nil
}

// --- batch workloads --------------------------------------------------

func buildBatchHTTPSmall(e env) (*instance, error) {
	in := &instance{}
	n, err := in.bootSingle(nodeConfig{shards: batchShards, rows: batchRows, http: true, tr: e.tr})
	if err != nil {
		return in, err
	}
	clients, err := in.newClients(n, true, in.newHTTPClients())
	if err != nil {
		return in, err
	}
	// Every request of a cycle pins a distinct table value.
	values := e.rng(1).Perm(batchRows)
	for w := 0; w < conns; w++ {
		var script []op
		for c := 0; c < smallCalls; c++ {
			reqs := make([]client.Request, smallReqs)
			for r := range reqs {
				at := values[(w*smallCalls+c)*smallReqs+r]
				reqs[r] = client.Request{ID: "r" + strconv.Itoa(at), Queries: workload.ListQueriesAt(smallSize, at)}
			}
			script = append(script, op{kind: opBatch, reqs: reqs, n: len(reqs)})
		}
		in.workers = append(in.workers, &worker{script: script, exec: clientExec(clients[w : w+1])})
	}
	in.batchChecks(n)
	in.layers = &batchLayers{n: n, http: true}
	return in, nil
}

func buildBatchBinaryLarge(e env) (*instance, error) {
	in := &instance{}
	n, err := in.bootSingle(nodeConfig{shards: batchShards, rows: batchRows, tr: e.tr})
	if err != nil {
		return in, err
	}
	clients, err := in.newClients(n, false, nil)
	if err != nil {
		return in, err
	}
	// Frozen shapes: the Figure-4 list (one component per query, the SCC
	// worst case) and, alternating, Figure-5 scale-free sets and random
	// safe sets with a fifth of the bodies unsatisfiable (the pruning
	// cascade).
	shapes := rand.New(rand.NewSource(shapeSeed))
	list := workload.ListQueries(largeSize, batchRows)
	var second [][]eq.Query
	for i := 0; i < largeShapes; i++ {
		second = append(second,
			workload.ScaleFreeQueries(largeSize, 2, batchRows, shapes),
			workload.RandomSafeQueries(largeSize, batchRows, 0.03, 0.8, shapes))
	}
	offs := e.rng(2)
	for w := 0; w < conns; w++ {
		var script []op
		for c := 0; c < largeCalls; c++ {
			k := w*largeCalls + c
			reqs := []client.Request{
				{ID: "list" + strconv.Itoa(k), Queries: shiftBodies(list, offs.Intn(batchRows), batchRows)},
				{ID: "graph" + strconv.Itoa(k), Queries: shiftBodies(second[k%len(second)], offs.Intn(batchRows), batchRows)},
			}
			script = append(script, op{kind: opBatch, reqs: reqs, n: len(reqs)})
		}
		in.workers = append(in.workers, &worker{script: script, exec: clientExec(clients[w : w+1])})
	}
	in.batchChecks(n)
	in.layers = &batchLayers{n: n}
	return in, nil
}

// batchChecks installs the batch output check: every response passes
// coord.Verify (Definition 1) against the store, and the batch's
// order-independent digest equals an in-process engine.CoordinateMany
// over the same requests on a reference engine.
func (in *instance) batchChecks(n *node) {
	ref := engine.New(n.store, engine.Options{})
	in.verifyOp = func(ctx context.Context, w *worker, o *op) (outcome, error) {
		got, err := w.exec(ctx, o)
		if err != nil {
			return got, err
		}
		resps := ref.CoordinateMany(ctx, engineRequests(o))
		ids := make([]string, len(resps))
		results := make([]*coord.Result, len(resps))
		for i, r := range resps {
			if r.Err != nil {
				return got, fmt.Errorf("reference run of %s: %w", r.ID, r.Err)
			}
			if r.Result != nil {
				if err := coord.Verify(o.reqs[i].Queries, r.Result.Set, r.Result.Values, n.store); err != nil {
					return got, fmt.Errorf("request %s: %w", r.ID, err)
				}
			}
			ids[i], results[i] = r.ID, r.Result
		}
		if want := batchOutcome(ids, results); want != got {
			return got, fmt.Errorf("served batch differs from in-process engine.CoordinateMany (digest %x, want %x)", got.digest, want.digest)
		}
		return got, nil
	}
	in.check = func(context.Context) error { return nil }
}

// --- session workloads ------------------------------------------------

// sessionPlan is one session's population and script.
type sessionPlan struct {
	cs     chainSet
	script []op
}

func planSession(name string, firstChain, chains, rows, rot int) (sessionPlan, error) {
	cs := chainSet{session: name, rows: rows}
	for j := 0; j < chains; j++ {
		cs.ids = append(cs.ids, firstChain+j)
	}
	p := sessionPlan{cs: cs, script: cs.churnOps(rot)}
	return p, checkScript(cs, p.script)
}

// warmSessions creates every session and joins its population, the
// sessions of one worker in sequence, the workers in parallel.
func warmSessions(ctx context.Context, workers []*worker, create []*client.Client, plans [][]sessionPlan) error {
	errs := make(chan error, len(workers))
	for w := range workers {
		go func(w int) {
			for _, p := range plans[w] {
				if _, err := create[w].CreateSession(ctx, p.cs.session, false); err != nil {
					errs <- fmt.Errorf("creating session %s: %w", p.cs.session, err)
					return
				}
				for _, o := range p.cs.warmOps() {
					o.cli = p.script[0].cli
					if _, err := workers[w].exec(ctx, &o); err != nil {
						errs <- fmt.Errorf("warming session %s: %w", p.cs.session, err)
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	var first error
	for range workers {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// checkSessionStatus is the session output check: the final status read
// through the client equals a batch coord.SCCCoordinate over the
// session's live queries (the stream == batch guarantee), and the
// population is back at full size.
func checkSessionStatus(ctx context.Context, c *client.Client, store db.Store, p sessionPlan) error {
	st, err := c.Session(p.cs.session).Status(ctx, false)
	if err != nil {
		return fmt.Errorf("status of %s: %w", p.cs.session, err)
	}
	if want := len(p.cs.ids) * chainLen; st.Live != want || len(st.Queries) != want {
		return fmt.Errorf("session %s holds %d live queries, want %d", p.cs.session, st.Live, want)
	}
	ref, err := coord.SCCCoordinate(st.Queries, store, coord.Options{})
	if err != nil {
		return fmt.Errorf("batch run over %s: %w", p.cs.session, err)
	}
	if (ref == nil) != (st.Result == nil) {
		return fmt.Errorf("session %s: result presence differs from batch", p.cs.session)
	}
	if ref != nil {
		if !reflect.DeepEqual(ref.Set, st.Result.Set) || !reflect.DeepEqual(ref.Values, st.Result.Values) {
			return fmt.Errorf("session %s: status differs from batch coord.SCCCoordinate over its live queries", p.cs.session)
		}
		if err := coord.Verify(st.Queries, st.Result.Set, st.Result.Values, store); err != nil {
			return fmt.Errorf("session %s: %w", p.cs.session, err)
		}
		if st.TeamSize != len(ref.Set) {
			return fmt.Errorf("session %s: team size %d, batch %d", p.cs.session, st.TeamSize, len(ref.Set))
		}
	}
	return nil
}

func buildSessionMemChurn(e env) (*instance, error) {
	in := &instance{}
	n, err := in.bootSingle(nodeConfig{shards: batchShards, rows: batchRows, tr: e.tr})
	if err != nil {
		return in, err
	}
	clients, err := in.newClients(n, false, nil)
	if err != nil {
		return in, err
	}
	rng := e.rng(3)
	base := rng.Intn(batchRows - conns*churnChains)
	plans := make([][]sessionPlan, conns)
	for w := 0; w < conns; w++ {
		p, err := planSession("churn-"+strconv.Itoa(w), base+w*churnChains, churnChains, batchRows, rng.Intn(churnChains))
		if err != nil {
			return in, err
		}
		plans[w] = []sessionPlan{p}
		in.workers = append(in.workers, &worker{script: p.script, exec: clientExec(clients[w : w+1])})
	}
	ctx := context.Background()
	if err := warmSessions(ctx, in.workers, clients, plans); err != nil {
		return in, err
	}
	in.check = func(ctx context.Context) error {
		for w, ps := range plans {
			if err := checkSessionStatus(ctx, clients[w], n.store, ps[0]); err != nil {
				return err
			}
		}
		return nil
	}
	in.layers = &sessionLayers{n: n, plans: plans}
	return in, nil
}

func buildSessionDurable(e env) (*instance, error) {
	in := &instance{}
	fs := newCrashFS(e.tr)
	dir := filepath.Join(e.workdir, "data")
	n, err := in.bootSingle(nodeConfig{shards: 1, rows: durableRows, dataDir: dir, fs: fs, tr: e.tr})
	if err != nil {
		return in, err
	}
	clients, err := in.newClients(n, false, nil)
	if err != nil {
		return in, err
	}
	rng := e.rng(4)
	base := rng.Intn(durableRows - durableSessions)
	plans := make([][]sessionPlan, durableSessions)
	create := make([]*client.Client, durableSessions)
	for w := 0; w < durableSessions; w++ {
		p, err := planSession("durable-"+strconv.Itoa(w), base+w, 1, durableRows, 0)
		if err != nil {
			return in, err
		}
		plans[w] = []sessionPlan{p}
		create[w] = clients[w%conns]
		in.workers = append(in.workers, &worker{script: p.script, exec: clientExec(clients[w%conns : w%conns+1])})
	}
	ctx := context.Background()
	if err := warmSessions(ctx, in.workers, create, plans); err != nil {
		return in, err
	}
	in.durable = &durableState{dir: dir, fs: fs, node: n, plans: plans, tr: e.tr}
	in.check = func(ctx context.Context) error {
		for w, ps := range plans {
			if err := checkSessionStatus(ctx, create[w], n.store, ps[0]); err != nil {
				return err
			}
		}
		return in.durable.crashAndRecover(ctx, in, create)
	}
	in.layers = &sessionLayers{n: n, plans: plans, durable: true}
	return in, nil
}
