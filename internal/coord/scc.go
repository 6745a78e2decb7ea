package coord

import (
	"errors"
	"fmt"
	"sort"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// ErrUnsafe is returned when an algorithm that requires safety is given
// an unsafe query set.
var ErrUnsafe = errors.New("coord: query set is not safe")

// ErrNotUnique is returned by the Gupta baseline on non-unique input.
var ErrNotUnique = errors.New("coord: query set is not unique")

// Candidate is one coordinating set discovered by the SCC algorithm: the
// set R(q) of all queries reachable from some query q, together with its
// witnessing state.
type Candidate struct {
	Set     []int // sorted query indices
	subst   *unify.Subst
	binding db.Binding
}

// Selector chooses which discovered candidate to return. It receives a
// non-empty candidate list and returns the index of the winner.
type Selector func(cands []Candidate) int

// MaxSize is the default selector: the candidate covering the most
// queries, first one on ties.
func MaxSize(cands []Candidate) int {
	best := 0
	for i, c := range cands {
		if len(c.Set) > len(cands[best].Set) {
			best = i
		}
	}
	return best
}

// PreferQuery returns a selector that picks the largest candidate
// containing query qi (the paper's "VIP client" criterion), falling back
// to MaxSize when no candidate contains it.
func PreferQuery(qi int) Selector {
	return func(cands []Candidate) int {
		best := -1
		for i, c := range cands {
			for _, q := range c.Set {
				if q == qi {
					if best < 0 || len(c.Set) > len(cands[best].Set) {
						best = i
					}
					break
				}
			}
		}
		if best < 0 {
			return MaxSize(cands)
		}
		return best
	}
}

// Options configures SCCCoordinate.
type Options struct {
	// Select picks among the discovered coordinating sets; nil means
	// MaxSize.
	Select Selector
	// SkipPruning disables the §6.1 preprocessing step that removes
	// queries with unsatisfiable bodies or unsatisfiable postconditions
	// before graph condensation. Used by the ablation benchmarks; the
	// algorithm remains correct either way.
	SkipPruning bool
	// SkipSafetyCheck trusts the caller that qs is safe. The safety
	// check is quadratic in the query-set size, and workload generators
	// construct safe sets by design.
	SkipSafetyCheck bool
	// Trace, when non-nil, receives a step-by-step record of the run
	// (pruning events and per-component outcomes); see coord.Trace.
	Trace *Trace
	// IncrementalUnify reuses each successor component's accumulated
	// MGU instead of recomputing the reachable set's unifier from
	// scratch — the strategy §6.1 describes for the paper's
	// implementation ("unifies the queries corresponding to that node
	// with the combined queries that resulted from its successors").
	// Results are identical either way; the ablation benchmark compares
	// cost.
	IncrementalUnify bool
	// Parallelism is the number of worker goroutines used to process
	// independent strongly connected components concurrently (the
	// component DAG bounds the available parallelism: a component runs
	// once all its successors have). Values <= 1 select the sequential
	// path. The candidate family, its order, and any Trace are identical
	// to a sequential run. The parallel path always recomputes each
	// component's MGU from scratch (substitutions are union-find
	// structures that mutate on read, so successors' MGUs cannot be
	// shared across goroutines); IncrementalUnify is ignored.
	Parallelism int
}

// SCCCoordinate runs the SCC Coordination Algorithm of §4 on a safe (but
// not necessarily unique) set of entangled queries. It returns the
// selected coordinating set, or nil if none exists. The input set must
// be safe; ErrUnsafe is returned otherwise.
//
// The algorithm: build the coordination graph, condense it into its DAG
// of strongly connected components, walk components in reverse
// topological order, and for each component unify its queries with the
// combined queries of its successors and ground the combination with a
// single database query. Every component that grounds successfully
// yields the candidate set R(q) of all queries reachable from it; the
// selector picks among candidates (maximum size by default).
//
// The implementation lives in runSCC (trace.go) so that a single code
// path serves plain, traced and candidate-enumerating runs.
//
// The store may be shared with concurrent requests: every query this
// run issues is counted on a private db.Meter, so Result.DBQueries is
// exact for this run alone regardless of concurrent traffic.
func SCCCoordinate(qs []eq.Query, store db.Store, opts Options) (*Result, error) {
	m := db.NewMeter(store)
	cands, err := runSCC(qs, m, opts)
	if err != nil || len(cands) == 0 {
		return nil, err
	}
	sel := opts.Select
	if sel == nil {
		sel = MaxSize
	}
	win := cands[sel(cands)]
	return finishResult(qs, win.Set, win.subst, win.binding, m)
}

// CandidateSet is one member of the candidate family {R(q)} with its
// witnessing assignment, as returned by AllCandidates.
type CandidateSet struct {
	Set    []int
	Values map[int]map[string]eq.Value
}

// AllCandidates runs the SCC Coordination Algorithm and returns every
// coordinating set it discovers — the grounded members of the family
// {R(q) | q in Q} — sorted largest first. Callers with bespoke
// selection criteria (the paper mentions gold-status passengers and VIP
// clients) can choose among them directly.
func AllCandidates(qs []eq.Query, store db.Store, opts Options) ([]CandidateSet, error) {
	m := db.NewMeter(store)
	cands, err := runSCC(qs, m, opts)
	if err != nil {
		return nil, err
	}
	out := make([]CandidateSet, 0, len(cands))
	for _, c := range cands {
		fallback, err := pickFallback(qs, c.Set, c.subst, c.binding, m)
		if err != nil {
			return nil, err
		}
		out = append(out, CandidateSet{
			Set:    c.Set,
			Values: extractValues(qs, c.Set, c.subst, c.binding, fallback),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].Set) > len(out[j].Set) })
	return out, nil
}

// finishResult turns internal state into a verified-shape Result. The
// meter is the one every query of the run went through; its count is
// the run's exact DBQueries.
func finishResult(qs []eq.Query, set []int, s *unify.Subst, bind db.Binding, m *db.Meter) (*Result, error) {
	fallback, err := pickFallback(qs, set, s, bind, m)
	if err != nil {
		return nil, err
	}
	values := extractValues(qs, set, s, bind, fallback)
	return &Result{
		Set:       set,
		Values:    values,
		DBQueries: m.Count(),
	}, nil
}

// pickFallback chooses a domain value for variables left free by both
// unification and grounding. If no such variable exists the fallback is
// never used; if one exists but the domain is empty, no assignment is
// possible (Definition 1 draws values from the instance domain).
func pickFallback(qs []eq.Query, set []int, s *unify.Subst, bind db.Binding, store db.Store) (eq.Value, error) {
	free := false
	for _, qi := range set {
		for _, v := range qs[qi].Vars() {
			t := s.Resolve(eq.V(varPrefix(qi) + v))
			if t.IsVar() {
				if _, ok := bind[t.Name]; !ok {
					free = true
				}
			}
		}
	}
	if !free {
		return "", nil
	}
	dom := store.Domain()
	if len(dom) == 0 {
		return "", fmt.Errorf("coord: free variables but empty database domain")
	}
	return dom[0], nil
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
	alive := make([]bool, len(qs))
	for i := range alive {
		alive[i] = true
	}
	var c cascade
	if len(c.run(qs, edges, alive, nil)) > 0 {
		return nil, nil
	}
	m := db.NewMeter(store)
	renamed := renameAll(qs)
	s := unify.New()
	for _, e := range edges {
		p := renamed[e.FromQ].Post[e.PostIdx]
		h := renamed[e.ToQ].Head[e.HeadIdx]
		if err := s.UnifyAtoms(p, h); err != nil {
			return nil, nil // unification failure: no coordinating set
		}
	}
	var body []eq.Atom
	set := make([]int, len(qs))
	for i := range qs {
		set[i] = i
		body = append(body, renamed[i].Body...)
	}
	bind, found, err := m.SolveUnder(body, s)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, nil
	}
	return finishResult(qs, set, s, bind, m)
}

func reverse(xs []int) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}
