package coord

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// ErrUnsafe is returned when an algorithm that requires safety is given
// an unsafe query set.
var ErrUnsafe = errors.New("coord: query set is not safe")

// ErrNotUnique is returned by the Gupta baseline on non-unique input.
var ErrNotUnique = errors.New("coord: query set is not unique")

// grounded is a candidate as the walk keeps it: its queries in the
// order their bodies were combined, which the database's answer follows
// slot by slot, and that answer. Its unifier is not kept: it is a
// function of the set, recomputed for the candidate whose witness
// values are actually read.
type grounded struct {
	order   []int
	binding db.Binding
}

// Options configures SCCCoordinate.
type Options struct {
	// Trace, when non-nil, receives a step-by-step record of a run that
	// succeeds (pruning events and per-component outcomes); see
	// coord.Trace.
	Trace *Trace
}

// SCCCoordinate runs the SCC Coordination Algorithm of §4 on a safe (but
// not necessarily unique) set of entangled queries. It returns the
// largest coordinating set it finds, or nil if none exists. The input
// set must be safe; ErrUnsafe is returned otherwise.
//
// The algorithm: build the coordination graph, prune every query whose
// postcondition no head provides for (the §6.1 provider cascade, graph
// work only), and condense it into its DAG of strongly connected
// components. A component's candidate set R(q) is every query reachable
// from it; searching it unifies those queries' postconditions with the
// heads they name and grounds the combined bodies with a single
// database query. That query is the only one a component costs: a body
// the database cannot satisfy is found there, not probed beforehand.
// The answer is the largest candidate that grounds — of equal sizes,
// the lexicographically least sorted set. The paper searches every
// component bottom-up and keeps the largest; this walk asks for the
// winner first. Grounding is inherited downward — if q reaches p, R(p)
// ⊆ R(q), and a tuple that grounds R(q) grounds R(p) — so it searches
// the unpruned components in that rank order and stops at the first
// set that grounds. A search that fails may name a query no set holding
// it grounds (search.ground); every later set holding it is skipped
// unsearched. Like the paper's, it asks at most one query per unpruned
// component; which asks fewer depends on the input (DESIGN.md, "The §4
// walk asks for the winner first"). AllCandidates runs the
// paper's walk and hands a caller the whole family instead.
//
// The walk is Incremental's: the set is bulk-loaded into a pooled,
// one-shot coordinator (load) and walked once, so batch requests and
// streaming sessions share a single code path. The winner's witness
// values are read off its MGU, recomputed once it has grounded —
// unification only, no database query.
//
// The store may be shared with concurrent requests: every query this
// run issues is counted on a private db.Meter, so Result.DBQueries is
// exact for this run alone regardless of concurrent traffic.
func SCCCoordinate(qs []eq.Query, store db.Store, opts Options) (*Result, error) {
	inc := loads.Get().(*Incremental)
	defer inc.release()
	if err := inc.load(qs, store, opts, false); err != nil {
		return nil, err
	}
	return inc.Result()
}

// CandidateSet is one member of the candidate family {R(q)} with its
// witnessing assignment, as returned by AllCandidates.
type CandidateSet struct {
	Set    []int
	Values map[int]map[string]eq.Value
}

// AllCandidates runs the SCC Coordination Algorithm as the paper walks
// it, every component bottom-up, skipping one whose successor failed,
// and returns every coordinating set it discovers — the grounded
// members of the family {R(q) | q in Q} — sorted largest first, and
// sets of one size lexicographically, so SCCCoordinate's answer is the
// first. It is how a caller applies its own criterion instead of SCCCoordinate's: the
// paper's examples are preferring gold-status passengers and VIP
// clients, and the caller picks, say, the largest set holding its VIP's
// query.
func AllCandidates(qs []eq.Query, store db.Store, opts Options) ([]CandidateSet, error) {
	inc := loads.Get().(*Incremental)
	defer inc.release()
	if err := inc.load(qs, store, opts, true); err != nil {
		return nil, err
	}
	out, err := inc.Candidates()
	if err != nil {
		return nil, err
	}
	slices.SortFunc(out, func(a, b CandidateSet) int {
		if len(a.Set) != len(b.Set) {
			return len(b.Set) - len(a.Set)
		}
		return slices.Compare(a.Set, b.Set)
	})
	return out, nil
}

// loads pools the one-shot coordinators SCCCoordinate and AllCandidates
// run on: a request refills the graph, variable tables and scratch an
// earlier one sized.
var loads = sync.Pool{New: func() any { return &Incremental{g: NewIncrementalGraph()} }}

// load makes a pooled inc a one-shot coordinator over qs, the walk
// behind SCCCoordinate and AllCandidates: every query filed into its
// graph, one safety check, every query's variables numbered in one
// array — a load's serial is its index — then Refresh, which runs the
// one pass on the request's meter, in the rank order or, for family,
// the paper's order over the whole family. Nothing will ask for a second pass,
// so there is no outcome cache: the pass builds no key, copies a
// searched set only for a grounded candidate, into the arena, and keeps
// its per-component record only for opts.Trace (records). The serials,
// which only a key or a renumbered trace reads, stay nil, and queries
// aliases qs. A load that fails adds nothing to opts.Trace.
func (inc *Incremental) load(qs []eq.Query, store db.Store, opts Options, family bool) error {
	inc.g.fill(qs)
	if bad := inc.g.Unsafe(); len(bad) > 0 {
		return fmt.Errorf("%w: unsafe queries %v", ErrUnsafe, bad)
	}
	inc.store, inc.opts, inc.queries, inc.family = store, opts, qs, family
	inc.ids, inc.vars = numberInto(qs, inc.ids, inc.vars)
	inc.arena = inc.arena[:0]
	if _, err := inc.Refresh(); err != nil {
		return err
	}
	if tr := opts.Trace; tr != nil {
		t := inc.Trace(nil)
		tr.Pruned = append(tr.Pruned, t.Pruned...)
		tr.Components = append(tr.Components, t.Components...)
	}
	return nil
}

// release lets go of everything the request handed inc or its pass read
// from the store — queries, bucketed atoms, store, options, fallback,
// bindings (the candidates' frames go back to db), traced outcomes,
// combined body, the unifier's constants — in used and spare capacity
// alike, and pools inc. What stays is integer scratch and the buckets'
// keys: the relations and constants the last fills filed.
func (inc *Incremental) release() {
	inc.store, inc.opts, inc.queries, inc.fb, inc.family = nil, Options{}, nil, fallback{}, false
	for i := range inc.cands {
		inc.cands[i].binding.Release()
	}
	g, sr := inc.g, &inc.scr.sr
	clear(g.heads.refs[:cap(g.heads.refs)])
	clear(g.posts.refs[:cap(g.posts.refs)])
	clear(inc.cands[:cap(inc.cands)])
	clear(inc.events[:cap(inc.events)])
	clear(sr.body[:cap(sr.body)])
	if sr.subst != nil {
		sr.subst.Forget()
	}
	loads.Put(inc)
}

// finishResult turns the state of an algorithm that holds its own
// substitution in sr — the unifier of order, a set whose bodies, in that
// order, the database grounded as bind — into a verified-shape Result,
// releasing bind. The meter is the one every query of the run went
// through; its count is the run's exact DBQueries.
func finishResult(qs []eq.Query, vars []varTable, sr *search, order []int, bind db.Binding, m *db.Meter) (*Result, error) {
	sr.combine(qs, vars, order)
	values, err := sr.values(qs, vars, order, bind, &fallback{store: m})
	bind.Release()
	if err != nil {
		return nil, err
	}
	return &Result{Set: sortedCopy(order), Values: values, DBQueries: m.QueriesIssued()}, nil
}

// GuptaCoordinate is the baseline algorithm of Gupta et al. (SIGMOD
// 2011): it requires the set to be both safe and unique, computes the
// most general unifier of all the queries' postcondition/head
// constraints, and issues a single combined conjunctive query. It
// returns the full set as the coordinating set, or nil when the combined
// query cannot be grounded.
func GuptaCoordinate(qs []eq.Query, store db.Store) (*Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	edges := ExtendedGraph(qs)
	if bad := unsafeIn(edges, nil); len(bad) > 0 {
		return nil, fmt.Errorf("%w: unsafe queries %v", ErrUnsafe, bad)
	}
	if !coordinationGraph(len(qs), edges).StronglyConnected() {
		return nil, ErrNotUnique
	}
	// Uniqueness additionally demands that every postcondition has a
	// provider; a post with no unifiable head can never be satisfied.
	var c cascade
	if len(c.run(qs, edges, slices.Repeat([]bool{true}, len(qs)), nil)) > 0 {
		return nil, nil
	}
	// One search over the whole set: unique means every query reaches
	// every other, so R(q) is the full set whichever q it starts from.
	m := db.NewMeter(store)
	vars, set := numberAll(qs), every(len(qs))
	var sr search
	sr.index(edges, len(qs))
	status, bind, _, err := sr.ground(qs, vars, set, m)
	if err != nil || status != "grounded" {
		return nil, err
	}
	return finishResult(qs, vars, &sr, set, bind, m)
}
