package coord

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/graph"
)

// ErrUnsafeArrival is returned by Incremental.Add when admitting the
// query would make the session's set unsafe (some postcondition would
// unify with more than one head, Definition 2). The set is left
// unchanged; the caller can reject the arrival or park it and retry
// after a departure clears the conflict.
var ErrUnsafeArrival = errors.New("coord: arrival would make the query set unsafe")

// ErrNoQuery is returned by Incremental.Remove for a slot that holds no
// live query.
var ErrNoQuery = errors.New("coord: no live query in slot")

// DeltaStats reports what one incremental event (arrival or departure)
// cost: how much of the condensation DAG was dirty — re-unified and
// re-grounded — versus spliced from the previous pass's cache, and the
// exact number of database queries the event issued (counted on a
// private db.Meter, like every other coord entry point).
// The JSON tags define the canonical wire encoding used by the HTTP
// service layer (internal/api).
type DeltaStats struct {
	// Slot is the slot the event touched.
	Slot int `json:"slot"`
	// Components is the number of strongly connected components of the
	// live, unpruned set after the event.
	Components int `json:"components"`
	// Dirty counts the components the walk searched afresh: their
	// reachable set changed, so their MGU and grounding had to be
	// recomputed (one database query each, when unification succeeds).
	Dirty int `json:"dirty"`
	// Reused counts the components the walk spliced from an earlier
	// pass: their reachable set is untouched, so the cached outcome —
	// witness, binding, or failure — is still exact. A component the
	// walk never reached, because a larger set grounded first, counts in
	// neither, nor does a "dead member" one.
	Reused int `json:"reused"`
	// DBQueries is the exact number of conjunctive queries this event
	// issued: one grounding query per dirty component that unified. An
	// event that fails partway counts what it issued before it failed.
	DBQueries int64 `json:"db_queries"`
}

// compOutcome is the cached result of searching one component: the
// outcome of unifying its reachable set and grounding the combination.
// It is a pure function of (reachable live queries, store contents), so
// it stays valid for splicing as long as neither changes; the
// dirty-region invariant in DESIGN.md spells this out. The unifier and
// the combined body are functions of the set alone and are not kept:
// Result and Trace recompute the ones they show. Compact rewrites the
// slots; the binding holds values alone, slot by slot of the combined
// body, and never changes.
type compOutcome struct {
	status  string     // "grounded", "unification failed", "no tuple"
	order   []int      // reachable query slots in assembly order, the order of the combined body
	binding db.Binding // the database's answer, when grounded
	dead    int32      // on "no tuple", the slot of a query no set holding it grounds (search.ground), or -1
	pass    uint64     // the last reconcile pass that held its set
}

// compEvent is one component of the last pass, as Trace reports it.
type compEvent struct {
	members []int        // slots, carved from scratch.members
	status  string       // ComponentEvent.Status
	out     *compOutcome // nil when the component was never searched
}

// scratch is the per-pass bookkeeping of reconcile: integer work
// proportional to the live set, on buffers the coordinator keeps from
// one event to the next so that a steady-state event allocates only
// for its dirty components. Every buffer is sized and initialised at
// the start of the pass that reads it; Compact keeps them while a third is used.
type scratch struct {
	alive   []bool        // slot -> live and unpruned
	live    []int         // dense position -> slot, ascending
	idx     []int         // slot -> dense position, live slots only
	prune   cascade       // §6.1 provider counters
	cg      graph.Digraph // coordination graph over dense positions
	reach   reachRows     // component -> what it reaches
	keys    []rankKey     // component -> |R(c)| and its least slot; the family walk zeroes the size where nothing coordinates
	rank    []int         // the unpruned components' places in the walk, in the order they are searched
	sig     []byte        // cache key of the component being searched
	tie     [2][]int      // two tied components' sets, sorted to compare
	sr      search        // its reachable set, and the one search every component search runs on
	dead    []bool        // slot -> a search or splice of this pass found that no set holding it grounds
	members []int         // backing of this pass's compEvent.members
}

// Incremental is the resumable state of the SCC Coordination Algorithm
// over a query set that changes one query at a time. It is the core of
// the streaming sessions in internal/stream: Add and Remove maintain
// the extended coordination graph incrementally (edges only ever appear
// or disappear with their endpoint queries), rerun the provider cascade
// and recondense — pure graph work, no database traffic — and then
// walk the components largest set first until one grounds, re-solving
// a component whose reachable set changed and splicing the cached
// outcome of one whose set did not.
//
// A query's place is a slot: Add assigns the next, Remove tombstones
// one, Compact renumbers the live ones densely. Its name is an
// admission serial, handed out with the slot and never reused: traces
// name its variables q<serial>.<name>, and the outcome cache is keyed
// by serials, which outlive every renumbering of the slots. Its
// variables are numbered once, on admission (varTable). A quiesced
// Incremental reports exactly what a batch SCCCoordinate over its live
// queries (in slot order) would: same team, same trace, same witness
// values — the database's answer does not depend on the serials.
// A batch request is an Incremental too: SCCCoordinate and
// AllCandidates load a pooled one with the whole set and read its one
// pass, so the §4 walk is written once, in reconcile.
//
// Incremental is not safe for concurrent use; stream.Session adds the
// locking.
type Incremental struct {
	store db.Store
	opts  Options // a load's; a session's stays zero

	g       *IncrementalGraph
	queries []eq.Query // by slot
	vars    []varTable // by slot: the query's variables, numbered
	ids     []int32    // in a load, the array vars number into
	serials []int      // by slot, ascending: the query's admission serial; nil in a load
	next    int        // the serial the next admission gets
	// Liveness lives in g (IncrementalGraph.Live): one bitmap, no
	// lockstep copy to desynchronize.

	cache  map[string]*compOutcome // reachable set's serials -> outcome; nil in a load
	pass   uint64                  // reconcile passes started
	family bool                    // a load for AllCandidates: walk the whole family, not the rank order
	scr    scratch

	// State of the last reconcile pass.
	pruned []PruneEvent
	events []compEvent
	cands  []grounded
	arena  []int      // in a load, the array the candidates' orders are cut from
	fb     fallback   // read at most once per pass, and only if a witness needs it
	last   DeltaStats // the last event's cost, which Result reports
}

// NewIncremental returns an empty resumable coordinator over store. It
// prunes as a batch run does; its trace is available from Trace().
func NewIncremental(store db.Store) *Incremental {
	return &Incremental{
		store: store,
		g:     NewIncrementalGraph(),
		cache: map[string]*compOutcome{},
	}
}

// Len returns the number of live queries.
func (inc *Incremental) Len() int { return inc.g.live }

// Positions maps each slot to its query's index among the live ones —
// its place in LiveQueries, and its slot after a Compact — or -1 for a
// dead slot.
func (inc *Incremental) Positions() []int {
	pos := make([]int, len(inc.queries))
	for i, next := 0, 0; i < len(pos); i++ {
		pos[i] = -1
		if inc.g.Live(i) {
			pos[i], next = next, next+1
		}
	}
	return pos
}

// LiveQueries returns the live queries in slot order — the set a batch
// run would be given to reproduce this state.
func (inc *Incremental) LiveQueries() []eq.Query {
	out := make([]eq.Query, 0, inc.g.live)
	for i, q := range inc.queries {
		if inc.g.Live(i) {
			out = append(out, q)
		}
	}
	return out
}

// Add admits one arriving query: it extends the extended graph with the
// newcomer's incident edges and re-coordinates the dirty region. It
// returns the assigned slot and the event's cost. The newcomer's body
// is not probed on its own: a body the database cannot satisfy fails
// the search of every set that holds it. An arrival whose pass fails on a
// store error is still admitted, with its slot and the error: the next
// pass searches it.
//
// When the arrival would make the set unsafe the set is left untouched
// and ErrUnsafeArrival is returned. Safety is checked on the delta
// only: the incremental fanout counters make it O(newcomer's edges),
// not O(n²). One edge probe serves both the check and the commit.
func (inc *Incremental) Add(q eq.Query) (int, DeltaStats, error) {
	edges, unsafe := inc.g.Probe(q)
	if len(unsafe) > 0 {
		return -1, DeltaStats{}, fmt.Errorf("%w %s: would make queries %v unsafe", ErrUnsafeArrival, q.ID, unsafe)
	}
	slot := inc.g.commit(q, edges)
	inc.queries, inc.vars = append(inc.queries, q), append(inc.vars, numberAll([]eq.Query{q})...)
	inc.serials = append(inc.serials, inc.next)
	inc.next++
	d, err := inc.reconcile(db.NewMeter(inc.store))
	d.Slot = slot
	inc.last = d
	return slot, d, err
}

// Remove departs the query in a slot: its incident edges leave the
// graph with it, the provider cascade is rerun (a departure can strand
// postconditions that the cascade then removes), and the walk re-solves
// only components that could reach the departed query, if it reaches
// them. Departures issue database queries only for those dirty
// components.
func (inc *Incremental) Remove(slot int) (DeltaStats, error) {
	if !inc.g.Live(slot) {
		return DeltaStats{}, fmt.Errorf("%w %d", ErrNoQuery, slot)
	}
	inc.g.Remove(slot)
	d, err := inc.reconcile(db.NewMeter(inc.store))
	d.Slot = slot
	inc.last = d
	return d, err
}

// Result returns the largest coordinating set — of equal sizes, the
// one whose sorted set is lexicographically least, AllCandidates'
// first — or nil when nothing grounds or the last pass stopped on an
// error. It is the pass's one candidate: the rank walk stops at the
// first set that grounds. Asking costs no database queries — the
// winner's MGU is recomputed, its binding is cached — and
// Result.DBQueries reports the marginal cost of the event that produced
// this state, the streaming analogue of the paper's per-run cost
// metric.
func (inc *Incremental) Result() (*Result, error) {
	if len(inc.cands) == 0 {
		return nil, nil
	}
	win := inc.cands[0]
	values, err := inc.search().witness(inc.queries, inc.vars, win, &inc.fb)
	if err != nil {
		return nil, err
	}
	return &Result{Set: sortedCopy(win.order), Values: values, DBQueries: inc.last.DBQueries}, nil
}

// TeamSize returns the size of the coordinating set Result would
// select, without materialising the witness values.
func (inc *Incremental) TeamSize() int {
	if len(inc.cands) == 0 {
		return 0
	}
	return len(inc.cands[0].order)
}

// Candidates returns the coordinating sets the last pass grounded, in
// the order it grounded them, without issuing database queries: in a
// load for AllCandidates the whole family, otherwise the winner alone.
func (inc *Incremental) Candidates() ([]CandidateSet, error) {
	out := make([]CandidateSet, 0, len(inc.cands))
	sr := inc.search()
	for _, c := range inc.cands {
		values, err := sr.witness(inc.queries, inc.vars, c, &inc.fb)
		if err != nil {
			return nil, err
		}
		out = append(out, CandidateSet{Set: sortedCopy(c.order), Values: values})
	}
	return out, nil
}

// search returns the search scratch with the current edges indexed.
func (inc *Incremental) search() *search {
	inc.scr.sr.index(inc.g.Edges(), len(inc.queries))
	return &inc.scr.sr
}

// Trace returns the step-by-step record of the current state, in the
// shape a traced batch run over the live set would produce: pruning
// events then per-component outcomes in reverse topological order.
// With pos nil, query indices are slots and variables are named
// q<serial>.<name>, by admission serial. With pos = Positions() both
// are positions among the live queries, and the trace reads exactly
// like a batch trace over LiveQueries().
func (inc *Incremental) Trace(pos []int) *Trace {
	tr := &Trace{Pruned: append([]PruneEvent(nil), inc.pruned...)}
	for i := range tr.Pruned {
		tr.Pruned[i].Query = at(pos, tr.Pruned[i].Query)
	}
	if len(inc.events) == 0 {
		return tr
	}
	// The events' member lists live in scratch the next pass reuses;
	// the trace gets its own copy, one backing slice for all of them.
	members := make([]int, 0, inc.g.live)
	sr, num := inc.search(), pos
	if num == nil {
		num = inc.serials // nil in a load, where a serial is the slot
	}
	tr.Components = make([]ComponentEvent, len(inc.events))
	for i, e := range inc.events {
		from := len(members)
		for _, slot := range e.members {
			members = append(members, at(pos, slot))
		}
		ev := ComponentEvent{Members: members[from:len(members):len(members)], Status: e.status}
		if out := e.out; out != nil {
			ev.Set = make([]int, len(out.order))
			for j, slot := range out.order {
				ev.Set[j] = at(pos, slot)
			}
			slices.Sort(ev.Set)
			// What the database was asked, rendered from the set's MGU
			// and body, recomputed on scratch.
			if out.status != "unification failed" && sr.mgu(inc.queries, inc.vars, out.order) {
				sr.combine(inc.queries, inc.vars, out.order)
				ev.Combined = sr.combined(inc.queries, inc.vars, num)
			}
			if out.status == "grounded" {
				ev.SetSize = len(out.order)
			}
		}
		tr.Components[i] = ev
	}
	return tr
}

// at is a slot's index in a trace: itself, or its position.
func at(pos []int, slot int) int {
	if pos == nil {
		return slot
	}
	return pos[slot]
}

// Refresh rebuilds every store-dependent part of the state: cached
// component outcomes are dropped and every set the walk reaches is
// searched afresh. This is the escape hatch from the dirty-region invariant —
// cached witnesses assume the store's contents have not changed since
// they were computed, so a caller that interleaves writes with a
// session calls Refresh (with writers paused) to resynchronise. It
// costs what a batch run costs. The last pass's record goes first, with
// the outcomes it points into (Compact reaches them through the cache
// only).
func (inc *Incremental) Refresh() (DeltaStats, error) {
	inc.pruned, inc.events, inc.cands = inc.pruned[:0], inc.events[:0], inc.cands[:0]
	for sig, out := range inc.cache {
		inc.evict(sig, out)
	}
	d, err := inc.reconcile(db.NewMeter(inc.store))
	d.Slot = -1
	inc.last = d
	return d, err
}

// records reports whether a pass keeps its per-component record — the
// events and the outcomes they point at: a session always does, for
// Trace and Compact; a one-shot load only when opts.Trace asks.
func (inc *Incremental) records() bool { return inc.cache != nil || inc.opts.Trace != nil }

// reconcile brings the coordination state up to date after a graph
// change. The provider cascade and the condensation are recomputed —
// pure graph work. The component walk is the §4 walk, for sessions and
// batch requests alike, in the rank order: every reach row is folded
// bottom-up, and the unpruned components are searched largest R(c)
// first, of equal sizes least sorted R(c) first, until one grounds.
// Grounding is inherited downward — if c reaches d, R(d) ⊆ R(c), and a
// tuple grounding R(c) grounds R(d) — so that set is the family's
// largest, the one Result reports. A load for AllCandidates walks the
// whole family instead (walkFamily). Either way a set is searched once
// (settle), spliced when it matches a cached outcome, or skipped when
// it holds a query that a failed search named dead.
// Live slots are compacted before condensation so the walk is
// index-for-index a fresh load's over the live queries in slot order:
// same Tarjan numbering, same topological order, same ranks, same
// trace. Every query the pass issues is billed to d, whether or not the
// pass completes; a pass that does not leaves no candidates.
func (inc *Incremental) reconcile(m *db.Meter) (d DeltaStats, err error) {
	defer func() { d.DBQueries = m.QueriesIssued() }()
	s := &inc.scr
	n := len(inc.queries)
	edges := inc.search().edges

	// Compact live slots (monotone, so the graph below is isomorphic
	// to the batch one with identical adjacency order) and redo the
	// §6.1 provider cascade — same rounds, same order, no database
	// traffic.
	s.alive, s.idx, s.live = zeroed(s.alive, n), sized(s.idx, n), sized(s.live, inc.g.live)[:0]
	s.dead = zeroed(s.dead, n)
	for i := 0; i < n; i++ {
		if inc.g.Live(i) {
			s.idx[i], s.alive[i] = len(s.live), true
			s.live = append(s.live, i)
		}
	}
	inc.pruned = s.prune.run(inc.queries, edges, s.alive, inc.pruned[:0])

	s.cg.Reset(len(s.live))
	for _, e := range edges {
		if s.alive[e.FromQ] && s.alive[e.ToQ] {
			s.cg.AddEdge(s.idx[e.FromQ], s.idx[e.ToQ])
		}
	}
	dag, _, members := s.cg.Condense()
	walk, err := dag.TopoOrder()
	if err != nil {
		return d, err // cannot happen: condensation is a DAG
	}
	slices.Reverse(walk) // sinks first: the order the trace lists

	// Every cache entry whose set this pass still holds is stamped with
	// its number, searched or not; the rest are dropped once the walk is
	// over. A walk that fails leaves them all, plus whatever it solved,
	// to the next pass, which stamps and sweeps afresh.
	inc.pass++
	inc.fb = fallback{store: inc.store}
	nc := dag.N()
	s.reach.reset(nc)
	s.keys, s.rank = sized(s.keys, nc), s.rank[:0]
	record := inc.records()
	if record {
		s.members = sized(s.members, len(s.live))
	}
	carved := 0
	inc.events = inc.events[:0]
	inc.cands = inc.cands[:0]
	d.Components = nc

	unsearched := "outranked"
	if inc.family {
		unsearched = "successor failed"
	}
	for i, c := range walk {
		s.reach.fold(c, dag.Succ(c))
		ev := compEvent{status: "pruned"}
		if s.alive[s.live[members[c][0]]] {
			inc.gather(c, members)
			s.keys[c] = rankKey{int32(len(s.sr.set)), int32(slices.Min(s.sr.set))}
			s.rank = append(s.rank, i)
			ev.status = unsearched // until the walk searches it
			if out := inc.cache[string(s.sig)]; out != nil {
				out.pass = inc.pass // reached or not, the outcome is still exact
			}
		}
		if record {
			ev.members = s.members[carved : carved+len(members[c])]
			carved += len(ev.members)
			for j, mcj := range members[c] {
				ev.members[j] = s.live[mcj]
			}
			inc.events = append(inc.events, ev)
		}
	}
	if inc.family {
		err = inc.walkFamily(walk, dag, members, m, &d)
	} else {
		err = inc.walkRanked(walk, members, m, &d)
	}
	if err != nil {
		// A part of the family is no team, and a part of the walk no
		// trace; a load's frames go to the collector.
		inc.cands, inc.events = inc.cands[:0], inc.events[:0]
		return d, err
	}
	for sig, out := range inc.cache {
		if out.pass != inc.pass {
			inc.evict(sig, out)
		}
	}
	return d, nil
}

// walkRanked settles the unpruned components in the rank order until
// one grounds.
func (inc *Incremental) walkRanked(walk []int, members [][]int, m *db.Meter, d *DeltaStats) error {
	s := &inc.scr
	slices.SortFunc(s.rank, func(a, b int) int { return inc.outranks(walk[a], walk[b], members) })
	for _, i := range s.rank {
		if status, err := inc.settle(i, walk[i], members, m, d); err != nil || status == "grounded" {
			return err
		}
	}
	return nil
}

// outranks compares components a and b the way the rank walk orders
// them: the larger reachable set first, and of equal sizes the one
// whose sorted set is lexicographically least. The keys decide almost
// every pair; only sets that tie on size and least slot are
// materialised, on scratch, and compared whole.
func (inc *Incremental) outranks(a, b int, members [][]int) int {
	s := &inc.scr
	if ka, kb := s.keys[a], s.keys[b]; ka != kb {
		return cmp.Or(cmp.Compare(kb.size, ka.size), cmp.Compare(ka.least, kb.least))
	}
	s.tie[0] = s.reach.appendSet(s.tie[0][:0], a, members)
	s.tie[1] = s.reach.appendSet(s.tie[1][:0], b, members)
	slices.Sort(s.tie[0])
	slices.Sort(s.tie[1])
	return slices.Compare(s.tie[0], s.tie[1])
}

// walkFamily is the paper's bottom-up walk, which AllCandidates alone
// runs: every unpruned component in reverse topological order, settled
// unless a successor failed — nothing coordinates through it then — so
// that every member of the family is found.
func (inc *Incremental) walkFamily(walk []int, dag *graph.Digraph, members [][]int, m *db.Meter, d *DeltaStats) error {
	s := &inc.scr
	for _, i := range s.rank {
		c := walk[i]
		failed := slices.ContainsFunc(dag.Succ(c), func(succ int) bool { return s.keys[succ].size == 0 })
		if !failed {
			status, err := inc.settle(i, c, members, m, d)
			if err != nil {
				return err
			}
			failed = status != "grounded"
		}
		if failed {
			s.keys[c].size = 0
		}
	}
	return nil
}

// evict drops the outcome filed under sig and releases its binding; the
// caller knows that no candidate or event points at it.
func (inc *Incremental) evict(sig string, out *compOutcome) {
	out.binding.Release()
	delete(inc.cache, sig)
}

// gather leaves in the search scratch component c's reachable set, c's
// row folded, as slots in assembly order — ascending component — and, in
// a session, its cache key. The order is NOT sorted: the combined body
// is concatenated in it, and the frozen join plan, hence the witness and
// the rendered query, depend on it. A departure elsewhere can renumber
// Tarjan components and reorder an unchanged set; that must miss
// (re-solve, stay exact), not splice a stale outcome. The key spells
// the set in serials, which outlive every renumbering of the slots.
func (inc *Incremental) gather(c int, members [][]int) {
	s := &inc.scr
	set := s.reach.appendSet(s.sr.set[:0], c, members)
	s.sig = s.sig[:0]
	for j, pos := range set {
		set[j] = s.live[pos]
		if inc.cache != nil {
			s.sig = binary.AppendUvarint(s.sig, uint64(inc.serials[set[j]]))
		}
	}
	s.sr.set = set
}

// settle finds the outcome of component c, the i-th of the walk: a set
// holding a query found dead this pass cannot ground ("dead member");
// otherwise its reachable set is spliced from the cache when an earlier
// pass searched it, and searched once, the way every search runs
// (search.ground over canonical edges, so the union sequence and the
// substitution are the ones any run over the set computes), and the
// outcome's dead query is marked. A grounded set becomes a candidate.
// The outcome is kept — filed, and pointed at by the walk's i-th event
// — only when the pass records; otherwise a grounded set's copy is all
// that outlives the step.
func (inc *Incremental) settle(i, c int, members [][]int, m *db.Meter, d *DeltaStats) (string, error) {
	s := &inc.scr
	inc.gather(c, members)
	set := s.sr.set
	if slices.ContainsFunc(set, func(q int) bool { return s.dead[q] }) {
		if inc.records() {
			inc.events[i].status = "dead member"
		}
		return "dead member", nil
	}
	out := inc.cache[string(s.sig)] // the conversion does not allocate
	if out != nil {
		d.Reused++
	} else {
		status, bind, dead, err := s.sr.ground(inc.queries, inc.vars, set, m)
		if err != nil {
			return "", err
		}
		d.Dirty++
		if !inc.records() {
			if status == "grounded" {
				inc.cands = append(inc.cands, grounded{inc.keep(set), bind})
			} else if dead >= 0 {
				s.dead[dead] = true
			}
			return status, nil
		}
		out = &compOutcome{status: status, order: inc.keep(set), binding: bind, dead: int32(dead)}
		if inc.cache != nil {
			inc.cache[string(s.sig)] = out
		}
	}
	out.pass = inc.pass
	inc.events[i].status, inc.events[i].out = out.status, out
	if out.status == "grounded" {
		inc.cands = append(inc.cands, grounded{out.order, out.binding})
	} else if out.dead >= 0 {
		s.dead[out.dead] = true
	}
	return out.status, nil
}

// keep copies a searched set that outlives the step: in a session, into
// an array of its own, which the cache may hold for many passes; in a
// load, into the arena, which the next load reuses.
func (inc *Incremental) keep(set []int) []int {
	if inc.cache != nil {
		return slices.Clone(set)
	}
	inc.arena = append(inc.arena, set...)
	return inc.arena[len(inc.arena)-len(set) : len(inc.arena) : len(inc.arena)]
}
