package server_test

import (
	"cmp"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"entangled/internal/api"
	"entangled/internal/client"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/db/dbtest"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/persist"
	"entangled/internal/server"
	"entangled/internal/stream"
	"entangled/internal/workload"
)

// The differential lattice. One generator draws, from a seed of bytes,
// query sets and a churn script out of workload; cells on two axes run
// them. The stores: a plain db.Instance, workload.NewStore at K = 2 and
// K = 8, the seed evaluator dbtest.Oracle, and a persist.Backend
// recovered after a crash. The paths: in-process coord.SCCCoordinate,
// the engine, a stream.Session quiesced after every event, HTTP and
// binary together on one server, a 3-node cluster, brute force and, on
// the recovered store, its recovered sessions. Every path is held to its
// own store's in-process walk, every store to the plain store's, and
// every answer to Definition 1. A failing cell prints
//
//	lattice: seed=<hex> store=<s> path=<p> field=<f>: <what differed>
//
// and `go test ./internal/server -run 'TestLattice/seed=<hex>/store=<s>/path=<p>'`
// reruns it alone.

const (
	latticeRows = 16        // the workload table every store holds
	smallSets   = 6         // sets of at most 8 queries: brute force enumerates them
	stranded    = smallSets // the set the §6.1 cascade must prune
)

// TestLattice runs every cell on three seeds.
func TestLattice(t *testing.T) {
	for _, seed := range [][]byte{{0x01}, {0x02}, {0x03}} {
		t.Run("seed="+hex.EncodeToString(seed), func(t *testing.T) { runLattice(t, seed, true) })
	}
}

// FuzzLattice drives the in-process cells (no server, no disk) from
// seeds the fuzzer draws.
func FuzzLattice(f *testing.F) {
	for i := range 16 {
		f.Add([]byte{byte(0x10 + i)})
	}
	f.Fuzz(func(t *testing.T, seed []byte) { runLattice(t, seed, false) })
}

// draw is what one seed generates: query sets, each a batch request,
// and a churn script, each a session. The last set pins one value, so a
// sharded store routes it to one shard.
type draw struct {
	sets  [][]eq.Query
	churn []workload.Arrival
}

func drawLattice(seed []byte) draw {
	h := fnv.New64a()
	h.Write(seed)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	var d draw
	for range smallSets {
		d.sets = append(d.sets, workload.RandomSafeQueries(1+rng.Intn(8), latticeRows, 0.3, 0.7, rng))
	}
	// Its first query posts to a user no head names.
	qs := workload.RandomSafeQueries(12+rng.Intn(20), latticeRows, 0.08, 0.8, rng)
	qs[0].Post = append(qs[0].Post, eq.NewAtom("R", eq.C("Nobody"), eq.V("nobody")))
	d.sets = append(d.sets, qs,
		workload.ScaleFreeQueries(8+rng.Intn(24), 2, latticeRows, rng),
		workload.ListQueries(2+rng.Intn(14), latticeRows),
		workload.ListQueriesAt(2+rng.Intn(14), rng.Intn(latticeRows)))
	d.churn = workload.Arrivals(workload.Churn, 24+rng.Intn(24), latticeRows, rng.Int63())
	return d
}

// run is one in-process walk: its answer, its trace and the queries the
// store counted.
type run struct {
	res  *coord.Result
	tr   coord.Trace
	cost int64
}

func walk(t *testing.T, qs []eq.Query, store db.Store) run {
	t.Helper()
	var r run
	before := store.QueriesIssued()
	res, err := coord.SCCCoordinate(qs, store, coord.Options{Trace: &r.tr})
	if err != nil {
		t.Fatal(err)
	}
	r.res, r.cost = res, store.QueriesIssued()-before
	return r
}

func walks(t *testing.T, sets [][]eq.Query, store db.Store) (rs []run) {
	for _, qs := range sets {
		rs = append(rs, walk(t, qs, store))
	}
	return rs
}

// churned is the churn script run through an in-process session: each
// event's update, the status quiesced after it, and what reading that
// status cost the store.
type churned struct {
	ups  []api.Update
	sts  []stream.Status
	read []int64
}

func churn(t *testing.T, store db.Store, arrivals []workload.Arrival) churned {
	s := stream.New(store, stream.Options{})
	var c churned
	for i, a := range arrivals {
		ev := stream.Event{Kind: stream.JoinEvent, Query: a.Query}
		if a.Leave {
			ev = stream.Event{Kind: stream.LeaveEvent, ID: a.ID}
		}
		up, err := s.Apply(ev)
		before := store.QueriesIssued()
		st, serr := s.Status(true)
		if err != nil || serr != nil {
			t.Fatalf("event %d (%v): %v, %v", i, ev, err, serr)
		}
		u := api.UpdateFrom(up)
		u.ElapsedNS = 0
		c.ups, c.sts, c.read = append(c.ups, u), append(c.sts, st), append(c.read, store.QueriesIssued()-before)
	}
	return c
}

// latticeStore is one store's row of cells.
type latticeStore struct {
	seed   []byte
	name   string
	d      draw
	store  db.Store
	stores []db.Store // every store of the seed, the plain one first
	base   []run      // the plain store's walks
	want   []run      // this store's
	twin   []run      // walks whose witnesses this store's must equal, if any
	sess   churned
}

// cell is one (store, path) pair; its failures name it.
type cell struct {
	t *testing.T
	*latticeStore
	path string
}

func (c cell) fail(field, format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("lattice: seed=%x store=%s path=%s field=%s: %s", c.seed, c.name, c.path, field, fmt.Sprintf(format, args...))
}

// runLattice runs one seed through the cells; served adds those that
// boot servers or write a data directory.
func runLattice(t *testing.T, seed []byte, served bool) {
	d := drawLattice(seed)
	names := []string{"plain", "k2", "k8", "oracle"}
	stores := []db.Store{workload.NewStore(1, latticeRows, 0), workload.NewStore(2, latticeRows, 0),
		workload.NewStore(8, latticeRows, 0), dbtest.New(workload.NewStore(1, latticeRows, 0).(*db.Instance))}
	base := walks(t, d.sets, stores[0])
	for i, name := range names {
		ls := &latticeStore{seed: seed, name: name, d: d, store: stores[i], stores: stores, base: base,
			want: walks(t, d.sets, stores[i]), sess: churn(t, stores[i], d.churn)}
		t.Run("store="+name, func(t *testing.T) { ls.run(t, served, server.Options{}, func(*client.Client) {}) })
	}
	if served {
		t.Run("store=recovered", func(t *testing.T) { recoveredLattice(t, seed, d, stores, base) })
	}
}

// run runs the store's cells. HTTP and binary run last and at once, on
// one server, which extra reads first.
func (ls *latticeStore) run(t *testing.T, served bool, sopts server.Options, extra func(*client.Client)) {
	t.Run("path=inproc", ls.inproc)
	t.Run("path=engine", ls.engine)
	t.Run("path=session", ls.session)
	if ls.name == "plain" || ls.name == "k8" {
		t.Run("path=brute", ls.brute)
	}
	if !served {
		return
	}
	if shards, ok := map[string]int{"plain": 1, "k2": 2, "k8": 8}[ls.name]; ok {
		t.Run("path=cluster", func(t *testing.T) { ls.cluster(cell{t, ls, "cluster"}, shards) })
	}
	httpC, binC, _ := newDualLoopback(t, ls.store, sopts)
	extra(httpC)
	for path, c := range map[string]*client.Client{"http": httpC, "binary": binC} {
		t.Run("path="+path, func(t *testing.T) {
			t.Parallel()
			ls.served(cell{t, ls, path}, c)
		})
	}
}

// inproc: a walk bills one query per component it searched (grounded or
// no tuple), which is what the store counted; it finds the plain store's
// set with its trace and cost; and its witness verifies on every store.
func (ls *latticeStore) inproc(t *testing.T) {
	c := cell{t, ls, "inproc"}
	for i, r := range ls.want {
		var searched int64
		for _, ce := range r.tr.Components {
			if ce.Status == "grounded" || ce.Status == "no tuple" {
				searched++
			}
		}
		if r.cost != searched || (r.res != nil && r.res.DBQueries != searched) {
			c.fail("DBQueries", "set %d: the store counted %d, the result says %s, the trace searched %d", i, r.cost, jsonOf(r.res), searched)
		}
		if f := differs(r.res, ls.base[i].res, "Set", "DBQueries"); f != "" {
			c.fail(f, "set %d: %s, plain %s", i, jsonOf(r.res), jsonOf(ls.base[i].res))
		}
		if got, want := jsonOf(r.tr), jsonOf(ls.base[i].tr); got != want {
			c.fail("Trace", "set %d: %s, plain %s", i, got, want)
		}
		if ls.twin != nil && differs(r.res, ls.twin[i].res, "Values") != "" {
			c.fail("Values", "set %d: %s, never crashed %s", i, jsonOf(r.res), jsonOf(ls.twin[i].res))
		}
		for j := 0; r.res != nil && j < len(ls.stores); j++ {
			if err := coord.Verify(ls.d.sets[i], r.res.Set, r.res.Values, ls.stores[j]); err != nil {
				c.fail("Values", "set %d: the witness fails Definition 1 on store %d: %v", i, j, err)
			}
		}
	}
	if len(ls.want[stranded].tr.Pruned) == 0 {
		c.fail("Trace", "the stranded set pruned nothing")
	}
}

// engine: Engine.Coordinate on each set (call=one) and one CoordinateMany
// batch of every set in request order (call=many), untraced and routed
// where the bodies pin one shard, equal the traced in-process walk.
func (ls *latticeStore) engine(t *testing.T) {
	e := engine.New(ls.store, engine.Options{Workers: 4})
	same := func(t *testing.T, i int, got *coord.Result, err error, id string) {
		if f := differs(got, ls.want[i].res, "Set", "Values", "DBQueries"); f != "" || err != nil || id != fmt.Sprint(i) {
			cell{t, ls, "engine"}.fail(cmp.Or(f, "Err"), "set %d: %s %s (%v), in process %s", i, id, jsonOf(got), err, jsonOf(ls.want[i].res))
		}
	}
	t.Run("call=one", func(t *testing.T) {
		for i, qs := range ls.d.sets {
			one, err := e.Coordinate(context.Background(), qs)
			same(t, i, one, err, fmt.Sprint(i))
		}
	})
	t.Run("call=many", func(t *testing.T) {
		reqs := make([]engine.Request, len(ls.d.sets))
		for i, qs := range ls.d.sets {
			reqs[i] = engine.Request{ID: fmt.Sprint(i), Queries: qs}
		}
		many := e.CoordinateMany(context.Background(), reqs)
		for i := range reqs {
			same(t, i, many[i].Result, many[i].Err, many[i].ID)
		}
	})
	if r, ok := ls.store.(db.Router); ok {
		if _, ok := r.Route(ls.d.sets[len(ls.d.sets)-1]); !ok {
			cell{t, ls, "engine"}.fail("Route", "a list pinned to one value does not route")
		}
	}
}

// session: after every event the quiesced session equals a batch walk
// over its live queries, reading it cost nothing, and the event cost no
// more than that walk.
func (ls *latticeStore) session(t *testing.T) {
	c := cell{t, ls, "session"}
	for i, st := range ls.sess.sts {
		f, detail, cost := againstBatch(t, st.Queries, st.Result, st.Trace, ls.store)
		switch {
		case f != "":
			c.fail(f, "event %d: %s", i, detail)
		case ls.sess.read[i] != 0:
			c.fail("DBQueries", "event %d: reading the status cost %d queries", i, ls.sess.read[i])
		case ls.sess.ups[i].Stats.DBQueries > cost:
			c.fail("DBQueries", "event %d cost %d, a batch walk %d", i, ls.sess.ups[i].Stats.DBQueries, cost)
		}
	}
}

// brute: brute force finds a set exactly when SCC does, never a smaller
// one, and the same size at the same cost as on the plain store; its
// witness verifies.
func (ls *latticeStore) brute(t *testing.T) {
	c := cell{t, ls, "brute"}
	for i, qs := range ls.d.sets[:smallSets] {
		bf, err := coord.BruteForceMax(qs, ls.store)
		pbf, perr := coord.BruteForceMax(qs, ls.stores[0])
		ex, xerr := coord.BruteForceExists(qs, ls.store)
		if err != nil || perr != nil || xerr != nil {
			c.fail("Err", "set %d: %v, %v, %v", i, err, perr, xerr)
		}
		switch scc := ls.want[i].res; {
		case (bf != nil) != (scc != nil) || ex != (bf != nil):
			c.fail("Set", "set %d: brute force %s (exists %v), SCC %s", i, jsonOf(bf), ex, jsonOf(scc))
		case bf == nil:
		case bf.Size() < scc.Size() || bf.Size() != pbf.Size():
			c.fail("Set", "set %d: brute force %d, SCC %d, on the plain store %d", i, bf.Size(), scc.Size(), pbf.Size())
		case bf.DBQueries != pbf.DBQueries:
			c.fail("DBQueries", "set %d: %d, on the plain store %d", i, bf.DBQueries, pbf.DBQueries)
		default:
			if err := coord.Verify(qs, bf.Set, bf.Values, ls.store); err != nil {
				c.fail("Values", "set %d: the witness fails Definition 1: %v", i, err)
			}
		}
	}
}

// served: eight goroutines send batches of one to three sets, so pooled
// slabs and value maps are reused mid-walk, and each answer equals the
// in-process walk; meanwhile a session on the server runs the churn
// script.
func (ls *latticeStore) served(c cell, cl *client.Client) {
	const goroutines, rounds = 8, 3
	errs := make(chan [2]string, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				var sets []int
				for j := range 1 + (g+r)%3 {
					sets = append(sets, (g*rounds+r+j)%len(ls.d.sets))
				}
				if f, detail := ls.batch(cl, sets); f != "" {
					errs <- [2]string{f, detail}
					return
				}
			}
		}()
	}
	c.sameSession(cl, c.path)
	wg.Wait()
	close(errs)
	for e := range errs {
		c.fail(e[0], "%s", e[1])
	}
}

// batch sends the draw's sets in one call and holds every answer to
// the in-process walk; it names the first field that differs.
func (ls *latticeStore) batch(cl *client.Client, sets []int) (string, string) {
	reqs := make([]client.Request, len(sets))
	for j, i := range sets {
		reqs[j] = client.Request{ID: fmt.Sprint(j), Queries: ls.d.sets[i]}
	}
	resps, err := cl.CoordinateBatch(context.Background(), reqs)
	if err != nil || len(resps) != len(reqs) {
		return "Err", fmt.Sprintf("%d answers to %d requests (%v)", len(resps), len(reqs), err)
	}
	for j, resp := range resps {
		i := sets[j]
		if f := differs(resp.Result, ls.want[i].res, "Set", "Values", "DBQueries"); f != "" || resp.Err != nil || resp.ID != reqs[j].ID {
			return cmp.Or(f, "Err"), fmt.Sprintf("set %d: %s %s (%v), in process %s", i, resp.ID, jsonOf(resp.Result), resp.Err, jsonOf(ls.want[i].res))
		}
	}
	return "", ""
}

// cluster: every set, sent at once to n1 over binary and to n2 over HTTP,
// is scattered and answered as in process, so the costs sum to the
// single node's; sessions served by their owner, forwarded over binary
// and forwarded over HTTP equal the in-process session.
func (ls *latticeStore) cluster(c cell, shards int) {
	lc := newLoopCluster(c.t, 3, shards, latticeRows, server.Options{})
	all := make([]int, len(ls.d.sets))
	for i := range all {
		all[i] = i
	}
	for _, entry := range []*client.Client{lc.binTo(c.t, 0), lc.httpTo(c.t, 1)} {
		if f, detail := ls.batch(entry, all); f != "" {
			c.fail(f, "%s", detail)
		}
	}
	c.sameSession(lc.binTo(c.t, 0), lc.nameOwnedBy("pa", "n1"))
	c.sameSession(lc.binTo(c.t, 0), lc.nameOwnedBy("pb", "n2"))
	c.sameSession(lc.httpTo(c.t, 0), lc.nameOwnedBy("pc", "n3"))
}

// sameSession runs the churn script through a session named name that
// cl reaches, and holds it to the in-process session: the same update
// for every event and, quiesced, the same status byte for byte.
func (c cell) sameSession(cl *client.Client, name string) {
	ctx := context.Background()
	sess, err := cl.CreateSession(ctx, name, true)
	if err != nil {
		c.fail("Err", "creating %s: %v", name, err)
	}
	for i, a := range c.d.churn {
		var up api.Update
		if a.Leave {
			up, err = sess.Leave(ctx, a.ID)
		} else {
			up, err = sess.Join(ctx, a.Query)
		}
		up.ElapsedNS = 0
		if err != nil || !reflect.DeepEqual(up, c.sess.ups[i]) {
			c.fail("Update", "session %s event %d: %+v (%v), in process %+v", name, i, up, err, c.sess.ups[i])
		}
	}
	got, err := sess.Status(ctx, true)
	if err != nil || jsonOf(got) != c.status(name) {
		c.fail("Status", "session %s: %s (%v), in process %s", name, jsonOf(got), err, c.status(name))
	}
}

// status renders the in-process session's last status as a server
// answers it for a session named name.
func (c cell) status(name string) string {
	last := c.sess.sts[len(c.sess.sts)-1]
	return jsonOf(api.SessionStatus{ID: name, Live: len(last.Queries), Parked: last.Parked, Queries: last.Queries,
		Result: last.Result, Totals: last.Totals, Trace: last.Trace, TeamSize: last.Result.Size()})
}

// recoveredLattice crashes a durable node and runs the cells on what it
// recovers. Two sessions, one parking, run the churn script at once
// over HTTP on a 2-shard backend that fsyncs every event; the backend
// is aborted (its log dropped without a sync, no drain) and reopened.
// Its walks must equal a never-crashed K = 2 store's, witnesses
// included.
func recoveredLattice(t *testing.T, seed []byte, d draw, stores []db.Store, base []run) {
	ctx := context.Background()
	dir := t.TempDir()
	b := openBackend(t, dir, 2, latticeRows, persist.SyncAlways)
	c, srv, ts := durableLoopback(t, b)
	tracks, errs := make([]*churnTrack, 2), make([]error, 2)
	var wg sync.WaitGroup
	for i, name := range []string{"calm", "parking"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tracks[i], errs[i] = churnSession(ctx, c, name, i == 1, d.churn)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	b.Abort()
	t.Cleanup(srv.Close)

	rb := openBackend(t, dir, 2, latticeRows, persist.SyncAlways)
	t.Cleanup(func() { rb.Close() })
	ls := &latticeStore{seed: seed, name: "recovered", d: d, store: rb, stores: append(stores[:len(stores):len(stores)], rb),
		base: base, want: walks(t, d.sets, rb), twin: walks(t, d.sets, workload.NewStore(2, latticeRows, 0)), sess: churn(t, rb, d.churn)}
	ls.run(t, true, server.Options{Persist: rb}, func(cl *client.Client) {
		t.Run("path=recovered", func(t *testing.T) { ls.recovered(cell{t, ls, "recovered"}, cl, tracks) })
	})
}

// recovered: the server recovers both sessions with every acked event,
// each equal to a batch walk over its live set and, byte for byte, to
// the in-process session that never crashed.
func (ls *latticeStore) recovered(c cell, cl *client.Client, tracks []*churnTrack) {
	rec, err := cl.Recovery(context.Background())
	acked := tracks[0].acked + tracks[1].acked
	if err != nil || !rec.Enabled || rec.SessionEvents != acked ||
		!slices.Equal(slices.Sorted(slices.Values(rec.RecoveredSessions)), []string{"calm", "parking"}) {
		c.fail("Recovery", "%+v (%v), want %d acked events in sessions calm and parking", rec, err, acked)
	}
	for _, tr := range tracks {
		st, f, detail := recoveredDiff(c.t, context.Background(), cl, ls.store, tr)
		if f == "" && jsonOf(st) != c.status(tr.name) {
			f, detail = "Status", fmt.Sprintf("%s, in process %s", jsonOf(st), c.status(tr.name))
		}
		if f != "" {
			c.fail(f, "session %s: %s", tr.name, detail)
		}
	}
}

// againstBatch holds a quiesced state (live queries, answer, trace) to a
// batch walk over the same queries on store: the same set, witness and
// trace, and a witness that passes Definition 1. It names the first
// field that differs ("" when none does) with what it saw, and returns
// what the walk cost.
func againstBatch(t *testing.T, qs []eq.Query, res *coord.Result, tr *coord.Trace, store db.Store) (string, string, int64) {
	t.Helper()
	b := walk(t, qs, store)
	if f := differs(res, b.res, "Set", "Values"); f != "" {
		return f, fmt.Sprintf("%s, a batch walk %s", jsonOf(res), jsonOf(b.res)), b.cost
	}
	if got, want := jsonOf(tr), jsonOf(b.tr); got != want {
		return "Trace", fmt.Sprintf("%s, a batch walk %s", got, want), b.cost
	}
	if res != nil {
		if err := coord.Verify(qs, res.Set, res.Values, store); err != nil {
			return "Values", fmt.Sprintf("the witness fails Definition 1: %v", err), b.cost
		}
	}
	return "", "", b.cost
}

// differs names the first of fields in which got differs from want, ""
// when none does; a missing answer differs in Set.
func differs(got, want *coord.Result, fields ...string) string {
	if (got == nil) != (want == nil) {
		return "Set"
	}
	for _, f := range fields {
		if got != nil && !reflect.DeepEqual(reflect.ValueOf(*got).FieldByName(f).Interface(), reflect.ValueOf(*want).FieldByName(f).Interface()) {
			return f
		}
	}
	return ""
}

func jsonOf(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}
