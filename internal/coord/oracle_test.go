package coord

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/graph"
	"entangled/internal/workload"
)

// The batch walk the package ran before SCCCoordinate and AllCandidates
// became a bulk-loaded Incremental, kept as their reference: one pass
// over a freshly built condensation, written straight from §4 with no
// slots, cache or renumbering, sharing with the code under test only
// the pieces that have one home (the extended graph, search.ground,
// the §6.1 cascade, reachRows). It walks in either order the package
// does: the rank order SCCCoordinate's answer comes from, with sets
// compared whole rather than by key and a set resolved unsearched once
// it holds a query a failed search named dead, and the family order
// behind AllCandidates. It also walks the rank order learning nothing
// from a failed search, the walk's cost before it did. A traced run
// that fails may leave prune events in the trace; the code under test
// leaves none.
//
// With probe set, the walk also keeps the §6.1 body probe the package
// ran before its walk lost it: one Satisfiable per query, and a query
// whose body fails is pruned before the cascade. That changes the
// count, the trace and the condensation, but not the answer, which
// TestProbeFreeWalkMatchesProbedOracle holds set for set.

// oracleWalk is one run of the walk: the queries with their variables
// numbered, pruning outcome and the condensation of the coordination
// graph with its processing order, then what the walk fills in.
type oracleWalk struct {
	store   db.Store
	qs      []eq.Query
	vars    []varTable
	alive   []bool
	dag     *graph.Digraph
	members [][]int
	order   []int // component ids, reverse topological

	reach  reachRows
	failed []bool
	dead   []bool // query -> a failed search named it dead (search.ground)
	sr     search
	cands  []grounded
	events []ComponentEvent // nil unless traced; one per component, in order
}

// oracleOrder is the order a reference walk searches in.
type oracleOrder int

const (
	rankOrder      oracleOrder = iota // largest set first, skipping sets that hold a dead query
	blindRankOrder                    // largest set first, every set searched
	familyOrder                       // bottom-up, the whole family
)

// oracleRun executes the SCC Coordination Algorithm and leaves the
// grounded candidates in the walk's cands, in the order it found them.
// The family walk searches every component bottom-up, skipping one
// whose successor failed, and finds the whole family; the rank walk
// searches the unpruned components largest reachable set first, of
// equal sizes least sorted set first, and stops at the first that
// grounds, resolving a set that holds a dead query as "dead member"
// unless it is blind.
func oracleRun(qs []eq.Query, store db.Store, opts Options, probe bool, walk oracleOrder) (*oracleWalk, error) {
	if len(qs) == 0 {
		return &oracleWalk{}, nil
	}
	tr := opts.Trace
	edges := ExtendedGraph(qs)
	if bad := unsafeIn(edges, nil); len(bad) > 0 {
		return nil, fmt.Errorf("%w: unsafe queries %v", ErrUnsafe, bad)
	}
	alive := make([]bool, len(qs))
	for i := range alive {
		alive[i] = true
	}
	for i, q := range qs {
		sat := true
		if probe {
			var err error
			if sat, err = store.Satisfiable(q.Body); err != nil {
				return nil, err
			}
		}
		if !sat {
			alive[i] = false
			if tr != nil {
				tr.Pruned = append(tr.Pruned, PruneEvent{Query: i, Reason: "unsatisfiable body"})
			}
		}
	}
	var c cascade
	if pruned := c.run(qs, edges, alive, nil); tr != nil {
		tr.Pruned = append(tr.Pruned, pruned...)
	}

	g := graph.New(len(qs))
	for _, e := range edges {
		if alive[e.FromQ] && alive[e.ToQ] {
			g.AddEdge(e.FromQ, e.ToQ)
		}
	}
	dag, _, members := g.Condense()
	order, err := dag.TopoOrder()
	if err != nil {
		return nil, err
	}
	slices.Reverse(order)
	w := &oracleWalk{
		store: store, qs: qs, vars: numberAll(qs), alive: alive, dag: dag, members: members, order: order,
		failed: make([]bool, dag.N()), dead: make([]bool, len(qs)),
	}
	w.sr.index(edges, len(qs))
	w.reach.reset(dag.N())
	w.events = make([]ComponentEvent, len(order))
	sets := make([][]int, dag.N()) // R(c), sorted
	var ranked []int
	for i, c := range order {
		w.reach.fold(c, dag.Succ(c))
		w.events[i] = ComponentEvent{Members: append([]int(nil), members[c]...), Status: "pruned"}
		if alive[members[c][0]] {
			w.events[i].Status = "outranked"
			sets[c] = w.reach.appendSet(nil, c, members)
			slices.Sort(sets[c])
			ranked = append(ranked, i)
		}
	}
	if walk == familyOrder {
		for _, i := range ranked {
			c := order[i]
			if slices.ContainsFunc(dag.Succ(c), func(succ int) bool { return w.failed[succ] }) {
				w.events[i].Status, w.failed[c] = "successor failed", true
			} else if err := w.component(i); err != nil {
				return nil, err
			}
		}
	} else {
		sort.SliceStable(ranked, func(a, b int) bool {
			sa, sb := sets[order[ranked[a]]], sets[order[ranked[b]]]
			return len(sa) > len(sb) || len(sa) == len(sb) && slices.Compare(sa, sb) < 0
		})
		for _, i := range ranked {
			if walk == rankOrder && slices.ContainsFunc(sets[order[i]], func(q int) bool { return w.dead[q] }) {
				w.events[i].Status = "dead member"
				continue
			}
			if err := w.component(i); err != nil {
				return nil, err
			}
			if !w.failed[order[i]] {
				break
			}
		}
	}
	if tr != nil {
		tr.Components = append(tr.Components, w.events...)
	}
	return w, nil
}

// component is one step of the walk: search the reachable set of the
// i-th component, its reachability folded.
func (w *oracleWalk) component(i int) error {
	c, sr := w.order[i], &w.sr
	ev := &w.events[i]
	sr.set = w.reach.appendSet(sr.set[:0], c, w.members)
	status, bind, dead, err := sr.ground(w.qs, w.vars, sr.set, w.store)
	if err != nil {
		return err
	}
	if dead >= 0 {
		w.dead[dead] = true
	}
	ev.Status, ev.Set = status, sortedCopy(sr.set)
	if status != "unification failed" {
		ev.Combined = sr.combined(w.qs, w.vars, nil)
	}
	if status == "grounded" {
		ev.SetSize = len(sr.set)
		w.cands = append(w.cands, grounded{slices.Clone(sr.set), bind})
	}
	w.failed[c] = status != "grounded"
	return nil
}

// oracleCoordinate is SCCCoordinate on the reference rank walk.
func oracleCoordinate(qs []eq.Query, store db.Store, opts Options) (*Result, error) {
	return oracleChoose(qs, store, opts, false, rankOrder)
}

// probedCoordinate is SCCCoordinate on the reference rank walk with
// the body probe kept.
func probedCoordinate(qs []eq.Query, store db.Store) (*Result, error) {
	return oracleChoose(qs, store, Options{}, true, rankOrder)
}

// oracleChoose runs a reference rank walk and returns the one
// candidate it found, if any.
func oracleChoose(qs []eq.Query, store db.Store, opts Options, probe bool, walk oracleOrder) (*Result, error) {
	m := db.NewMeter(store)
	w, err := oracleRun(qs, m, opts, probe, walk)
	if err != nil || len(w.cands) == 0 {
		return nil, err
	}
	win := w.cands[0]
	values, err := w.sr.witness(qs, w.vars, win, &fallback{store: m})
	if err != nil {
		return nil, err
	}
	return &Result{Set: sortedCopy(win.order), Values: values, DBQueries: m.QueriesIssued()}, nil
}

// oracleCandidates is AllCandidates on the reference family walk.
func oracleCandidates(qs []eq.Query, store db.Store, opts Options) ([]CandidateSet, error) {
	m := db.NewMeter(store)
	w, err := oracleRun(qs, m, opts, false, familyOrder)
	if err != nil {
		return nil, err
	}
	out := make([]CandidateSet, 0, len(w.cands))
	fb := fallback{store: m}
	for _, c := range w.cands {
		values, err := w.sr.witness(qs, w.vars, c, &fb)
		if err != nil {
			return nil, err
		}
		out = append(out, CandidateSet{Set: sortedCopy(c.order), Values: values})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Set, out[j].Set
		return len(a) > len(b) || len(a) == len(b) && slices.Compare(a, b) < 0
	})
	return out, nil
}

// TestBulkLoadMatchesBatchOracle holds SCCCoordinate and AllCandidates
// to the reference walk on every query set and option the package
// meets: the same result (team, witness values, DBQueries), the same
// candidate family, the same trace and the same error text — including
// ErrUnsafe's, which the service's golden files pin.
func TestBulkLoadMatchesBatchOracle(t *testing.T) {
	const rows = 40
	rng := rand.New(rand.NewSource(43))
	type querySet struct {
		name  string
		qs    []eq.Query
		store db.Store
	}
	sets := []querySet{
		{"figure-4 list", workload.ListQueries(30, rows), newWorkloadInstance(rows)},
		{"scale-free", workload.ScaleFreeQueries(40, 2, rows, rng), newWorkloadInstance(rows)},
		{"pruned random-safe", workload.RandomSafeQueries(40, rows, 0.03, 0.8, rng), newWorkloadInstance(rows)},
		{"stranded random-safe", stranded(workload.RandomSafeQueries(40, rows, 0.03, 0.8, rng), newWorkloadInstance(rows)), newWorkloadInstance(rows)},
		{"empty", nil, newWorkloadInstance(rows)},
	}
	fq, fin := flightHotel()
	sets = append(sets, querySet{"flight-hotel", fq, fin})
	values := db.NewInstance()
	rel := values.CreateRelation("T", "v")
	rel.Insert("1")
	rel.Insert("2")
	unsafe := 0
	for i := 0; i < 16; i++ {
		qs := randomEntangled(rng, 2+rng.Intn(10))
		if !IsSafe(qs) {
			unsafe++
		}
		sets = append(sets, querySet{fmt.Sprintf("random entangled %d", i), qs, values})
	}
	if unsafe == 0 {
		t.Fatal("no unsafe set among the random ones")
	}

	variants := []struct {
		name string
		opts func(qs []eq.Query) Options
	}{
		{"default", func([]eq.Query) Options { return Options{} }},
		{"traced", func([]eq.Query) Options { return Options{Trace: &Trace{}} }},
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, set := range sets {
		for _, v := range variants {
			name := set.name + ", " + v.name
			gotOpts, wantOpts := v.opts(set.qs), v.opts(set.qs)
			got, gotErr := SCCCoordinate(set.qs, set.store, gotOpts)
			want, wantErr := oracleCoordinate(set.qs, set.store, wantOpts)
			if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: SCCCoordinate\n%+v, %v\nthe reference walk\n%+v, %v", name, got, gotErr, want, wantErr)
			}
			if !reflect.DeepEqual(gotOpts.Trace, wantOpts.Trace) {
				t.Fatalf("%s: trace\n%+v\nthe reference walk's\n%+v", name, gotOpts.Trace, wantOpts.Trace)
			}

			gotOpts, wantOpts = v.opts(set.qs), v.opts(set.qs)
			gotCands, gotErr := AllCandidates(set.qs, set.store, gotOpts)
			wantCands, wantErr := oracleCandidates(set.qs, set.store, wantOpts)
			if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(gotCands, wantCands) {
				t.Fatalf("%s: AllCandidates\n%+v, %v\nthe reference walk\n%+v, %v", name, gotCands, gotErr, wantCands, wantErr)
			}
			if !reflect.DeepEqual(gotOpts.Trace, wantOpts.Trace) {
				t.Fatalf("%s: AllCandidates' trace\n%+v\nthe reference walk's\n%+v", name, gotOpts.Trace, wantOpts.Trace)
			}
		}
	}
}

// TestProbeFreeWalkMatchesProbedOracle holds the walk, which searches a
// body the database cannot satisfy where the §6.1 body probe used to
// prune it, to the reference walk with the probe kept: on 360
// random-safe and scale-free sets, some of whose bodies match nothing,
// and on the final live sets of 48 churn streams over 1, 2 and 8
// shards, both return the same set, and both answers pass Definition 1.
// The probe renumbers the condensation, so the same set is the same
// answer only because a tie goes to the least sorted set, not to walk
// order; the sets must hold ties for that to be tested.
func TestProbeFreeWalkMatchesProbedOracle(t *testing.T) {
	const rows = 32
	rng := rand.New(rand.NewSource(46))
	type querySet struct {
		name  string
		qs    []eq.Query
		store db.Store
	}
	var sets []querySet
	in := newWorkloadInstance(rows)
	for i := 0; i < 180; i++ {
		n := 2 + rng.Intn(30)
		qs := workload.RandomSafeQueries(n, rows, 0.02+0.2*rng.Float64(), 0.6+0.4*rng.Float64(), rng)
		sets = append(sets, querySet{fmt.Sprintf("random-safe %d", i), qs, in})
		qs = workload.ScaleFreeQueries(n, 1+rng.Intn(2), rows, rng)
		for j := range qs {
			if rng.Float64() < 0.15 {
				qs[j].Body = []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("missing"))}
			}
		}
		sets = append(sets, querySet{fmt.Sprintf("scale-free %d", i), qs, in})
	}
	for _, shards := range []int{1, 2, 8} {
		for seed := int64(0); seed < 16; seed++ {
			var live []eq.Query
			for _, a := range workload.Arrivals(workload.Churn, 48, rows, seed) {
				if !a.Leave {
					live = append(live, a.Query)
					continue
				}
				live = slices.DeleteFunc(live, func(q eq.Query) bool { return q.ID == a.ID })
			}
			sets = append(sets, querySet{fmt.Sprintf("churn, %d shards, seed %d", shards, seed), live, workload.NewStore(shards, rows, 0)})
		}
	}
	ties := 0
	for _, set := range sets {
		got, err := SCCCoordinate(set.qs, set.store, Options{})
		if err != nil {
			t.Fatalf("%s: %v", set.name, err)
		}
		want, err := probedCoordinate(set.qs, set.store)
		if err != nil {
			t.Fatalf("%s: the probed walk: %v", set.name, err)
		}
		if (got == nil) != (want == nil) || got != nil && !slices.Equal(got.Set, want.Set) {
			t.Fatalf("%s: the walk returned %v, the probed walk %v", set.name, got, want)
		}
		if got == nil {
			continue
		}
		if err := Verify(set.qs, got.Set, got.Values, set.store); err != nil {
			t.Fatalf("%s: the walk's answer: %v", set.name, err)
		}
		if err := Verify(set.qs, want.Set, want.Values, set.store); err != nil {
			t.Fatalf("%s: the probed walk's answer: %v", set.name, err)
		}
		cands, err := AllCandidates(set.qs, set.store, Options{})
		if err != nil {
			t.Fatalf("%s: %v", set.name, err)
		}
		if !slices.Equal(cands[0].Set, got.Set) {
			t.Fatalf("%s: AllCandidates puts %v first, SCCCoordinate returns %v", set.name, cands[0].Set, got.Set)
		}
		if len(cands) > 1 && len(cands[1].Set) == len(got.Set) {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no set has two largest candidates")
	}
	t.Logf("%d sets, %d with a tie for the largest", len(sets), ties)
}
