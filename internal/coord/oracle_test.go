package coord

import (
	"fmt"
	"math/bits"
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
// the §6.1 cascade, reachRows). A traced run that fails may leave
// prune events in the trace; the code under test leaves none.

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
	sr     search
	cands  []grounded
	events []ComponentEvent // nil unless traced
}

// oracleRun executes the SCC Coordination Algorithm and leaves every
// grounded candidate in the walk's cands, in processing order.
func oracleRun(qs []eq.Query, store db.Store, opts Options) (*oracleWalk, error) {
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
	if !opts.SkipPruning {
		for i, q := range qs {
			sat, err := store.Satisfiable(q.Body)
			if err != nil {
				return nil, err
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
		failed: make([]bool, dag.N()),
	}
	w.sr.index(edges, len(qs))
	w.reach.reset(dag.N())
	if tr != nil {
		w.events = []ComponentEvent{}
	}
	for _, c := range w.order {
		if err := w.component(c); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		tr.Components = append(tr.Components, w.events...)
	}
	return w, nil
}

// component is one step of the walk: fold the successors' reachability
// into c's, and search the reachable set.
func (w *oracleWalk) component(c int) error {
	sr := &w.sr
	var ev ComponentEvent
	switch {
	case !w.alive[w.members[c][0]]:
		ev.Status = "pruned"
	case !w.reach.fold(c, w.dag.Succ(c), w.failed):
		ev.Status = "successor failed"
	default:
		sr.set = sr.set[:0]
		for i, word := range w.reach.row(c) {
			for ; word != 0; word &= word - 1 {
				sr.set = append(sr.set, w.members[i*64+bits.TrailingZeros64(word)]...)
			}
		}
		status, bind, err := sr.ground(w.qs, w.vars, sr.set, w.store)
		if err != nil {
			return err
		}
		ev.Status = status
		if w.events != nil {
			ev.Set = sortedCopy(sr.set)
			if status != "unification failed" {
				ev.Combined = sr.combined(w.qs, w.vars, nil)
			}
		}
		if status == "grounded" {
			ev.SetSize = len(sr.set)
			w.cands = append(w.cands, grounded{slices.Clone(sr.set), bind})
		}
	}
	w.failed[c] = ev.Status != "grounded"
	if w.events != nil {
		ev.Members = append([]int(nil), w.members[c]...)
		w.events = append(w.events, ev)
	}
	return nil
}

// oracleCoordinate is SCCCoordinate on the reference walk.
func oracleCoordinate(qs []eq.Query, store db.Store, opts Options) (*Result, error) {
	m := db.NewMeter(store)
	w, err := oracleRun(qs, m, opts)
	if err != nil || len(w.cands) == 0 {
		return nil, err
	}
	win := w.cands[0] // the largest, the first found on ties
	for _, c := range w.cands {
		if len(c.order) > len(win.order) {
			win = c
		}
	}
	values, err := w.sr.witness(qs, w.vars, win, &fallback{store: m})
	if err != nil {
		return nil, err
	}
	return &Result{Set: sortedCopy(win.order), Values: values, DBQueries: m.QueriesIssued()}, nil
}

// oracleCandidates is AllCandidates on the reference walk.
func oracleCandidates(qs []eq.Query, store db.Store, opts Options) ([]CandidateSet, error) {
	m := db.NewMeter(store)
	w, err := oracleRun(qs, m, opts)
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
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].Set) > len(out[j].Set) })
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
		{"skip pruning", func([]eq.Query) Options { return Options{SkipPruning: true} }},
		{"traced", func([]eq.Query) Options { return Options{Trace: &Trace{}} }},
		{"traced, skip pruning", func([]eq.Query) Options { return Options{Trace: &Trace{}, SkipPruning: true} }},
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
