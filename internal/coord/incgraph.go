package coord

import (
	"cmp"
	"slices"
	"sort"

	"entangled/internal/eq"
	"entangled/internal/unify"
)

// headRef locates one head atom: the h-th head of query q.
type headRef struct {
	q, h int
	atom eq.Atom
}

// postRef locates one postcondition atom: the p-th post of query q.
type postRef struct {
	q, p int
	atom eq.Atom
}

// atomBuckets prefilters unification candidates for one side (heads or
// posts) of the extended graph. Atoms are bucketed per relation by the
// constant in their first argument; atoms whose first argument is a
// variable (or that have no arguments) can match anything over their
// relation and live in the wildcard bucket. A probe with a constant
// first argument touches only the matching constant bucket plus the
// wildcards; a probe without one touches the whole relation. Every
// candidate surviving the prefilter is still checked with
// unify.Unifiable, so the buckets are purely an optimisation — Figure
// 6's near-linear graph construction relies on them.
type atomBuckets[R any] struct {
	byConst map[string]map[string][]R // rel -> first-arg constant -> refs
	wild    map[string][]R            // rel -> refs with variable/absent first arg
	all     map[string][]R            // rel -> every ref
}

func newAtomBuckets[R any]() atomBuckets[R] {
	return atomBuckets[R]{
		byConst: map[string]map[string][]R{},
		wild:    map[string][]R{},
		all:     map[string][]R{},
	}
}

// insert files one atom under its buckets.
func (b *atomBuckets[R]) insert(a eq.Atom, ref R) {
	b.all[a.Rel] = append(b.all[a.Rel], ref)
	if len(a.Args) > 0 && !a.Args[0].IsVar() {
		m := b.byConst[a.Rel]
		if m == nil {
			m = map[string][]R{}
			b.byConst[a.Rel] = m
		}
		m[a.Args[0].Name] = append(m[a.Args[0].Name], ref)
	} else {
		b.wild[a.Rel] = append(b.wild[a.Rel], ref)
	}
}

// candidates returns the refs a probe atom could unify with.
func (b *atomBuckets[R]) candidates(a eq.Atom, yield func(R)) {
	if len(a.Args) > 0 && !a.Args[0].IsVar() {
		for _, r := range b.byConst[a.Rel][a.Args[0].Name] {
			yield(r)
		}
		for _, r := range b.wild[a.Rel] {
			yield(r)
		}
		return
	}
	for _, r := range b.all[a.Rel] {
		yield(r)
	}
}

// IncrementalGraph maintains the extended coordination graph of a
// growing and shrinking query set. A new query only adds edges incident
// to itself, so Add probes the cached head/post buckets and extends the
// edge set in time proportional to the newcomer's unifiable pairs
// instead of rebuilding the O(n²) graph; Remove drops a query's
// incident edges and tombstones it. The batch ExtendedGraph is the
// special case "add everything, then read Edges once" and is
// implemented on top of this type, so the streaming and batch paths
// share one graph-construction code path.
//
// The per-(query, postcondition) fanout of unifiable heads is
// maintained alongside the edges, which makes the paper's Definition-2
// safety check incremental too: Probe reports which queries an arrival
// would make unsafe without committing it.
type IncrementalGraph struct {
	n     int    // slots handed out, including removed ones
	live  int    // slots holding a query
	gone  []bool // slot -> removed
	nPost []int  // slot -> number of postcondition atoms

	heads atomBuckets[headRef]
	posts atomBuckets[postRef]

	// Edges among live slots: the first sorted of them in canonical
	// order, the rest as committed since Edges last ran.
	edges  []ExtendedEdge
	sorted int
	fanout postFanout
}

// postFanout counts, per (slot, postcondition index), the live heads
// the postcondition unifies with.
type postFanout map[[2]int]int

// NewIncrementalGraph returns an empty graph index.
func NewIncrementalGraph() *IncrementalGraph {
	return &IncrementalGraph{
		heads:  newAtomBuckets[headRef](),
		posts:  newAtomBuckets[postRef](),
		fanout: postFanout{},
	}
}

// N returns the number of slots handed out so far (including removed
// ones); the next Add returns slot N.
func (g *IncrementalGraph) N() int { return g.n }

// Live reports whether slot i holds a query that has not been removed.
func (g *IncrementalGraph) Live(i int) bool { return i >= 0 && i < g.n && !g.gone[i] }

// probeNew computes the edges a new query in slot slot would contribute:
// its postconditions against every live head (including its own), and
// every live postcondition against its heads. The graph is not
// modified.
func (g *IncrementalGraph) probeNew(slot int, q eq.Query) []ExtendedEdge {
	var out []ExtendedEdge
	// The newcomer's posts against live heads plus the newcomer's own
	// heads (self-edges are part of the extended graph).
	for pi, p := range q.Post {
		g.heads.candidates(p, func(h headRef) {
			if !g.gone[h.q] && unify.Unifiable(p, h.atom) {
				out = append(out, ExtendedEdge{slot, pi, h.q, h.h})
			}
		})
		for hi, h := range q.Head {
			if unify.Unifiable(p, h) {
				out = append(out, ExtendedEdge{slot, pi, slot, hi})
			}
		}
	}
	// Live posts of earlier queries against the newcomer's heads.
	for hi, h := range q.Head {
		g.posts.candidates(h, func(p postRef) {
			if !g.gone[p.q] && unify.Unifiable(p.atom, h) {
				out = append(out, ExtendedEdge{p.q, p.p, slot, hi})
			}
		})
	}
	return out
}

// Probe dry-runs an Add: it returns the edges the query would
// contribute, in canonical order, and the slots (including the
// prospective newcomer's, which is returned by N) that the arrival
// would make unsafe — a query is unsafe when one of its postconditions
// unifies with more than one head in the set (Definition 2). The graph
// is not modified.
func (g *IncrementalGraph) Probe(q eq.Query) (edges []ExtendedEdge, unsafe []int) {
	edges = g.probeNew(g.n, q)
	slices.SortFunc(edges, compareEdges)
	return edges, unsafeIn(edges, g.fanout)
}

// Add commits query q to the next slot and returns the slot index and
// the edges the query contributed (every returned edge has the new slot
// as an endpoint). Safety is not enforced here — callers that admit
// arrivals conditionally use Probe first and commit its edge list,
// paying for the probe once.
func (g *IncrementalGraph) Add(q eq.Query) (slot int, added []ExtendedEdge) {
	return g.commit(q, g.probeNew(g.n, q))
}

// commit files q under the next slot with a previously probed edge
// list. added must come from Probe/probeNew on the current graph state
// with no intervening mutation.
func (g *IncrementalGraph) commit(q eq.Query, added []ExtendedEdge) (int, []ExtendedEdge) {
	slot := g.n
	g.n++
	g.live++
	g.gone = append(g.gone, false)
	g.nPost = append(g.nPost, len(q.Post))
	for hi, h := range q.Head {
		g.heads.insert(h, headRef{slot, hi, h})
	}
	for pi, p := range q.Post {
		g.posts.insert(p, postRef{slot, pi, p})
	}
	g.edges = append(g.edges, added...)
	for _, e := range added {
		g.fanout[[2]int{e.FromQ, e.PostIdx}]++
	}
	return slot, added
}

// Remove tombstones slot i and drops its incident edges. Bucket entries
// are left in place and skipped during probes (removal surgery on the
// per-constant maps is not worth it; sessions churn queries, not
// relations). Removing an absent or already-removed slot is a no-op.
func (g *IncrementalGraph) Remove(i int) {
	if !g.Live(i) {
		return
	}
	g.gone[i] = true
	g.live--
	kept := g.Edges()[:0] // canonical first: filtering keeps it so
	for _, e := range g.edges {
		if e.FromQ == i || e.ToQ == i {
			g.fanout[[2]int{e.FromQ, e.PostIdx}]--
			continue
		}
		kept = append(kept, e)
	}
	g.edges, g.sorted = kept, len(kept)
	for pi := 0; pi < g.nPost[i]; pi++ {
		delete(g.fanout, [2]int{i, pi})
	}
}

// compareEdges orders edges canonically: by (FromQ, PostIdx, ToQ,
// HeadIdx).
func compareEdges(x, y ExtendedEdge) int {
	return cmp.Or(cmp.Compare(x.FromQ, y.FromQ), cmp.Compare(x.PostIdx, y.PostIdx),
		cmp.Compare(x.ToQ, y.ToQ), cmp.Compare(x.HeadIdx, y.HeadIdx))
}

// Edges returns the extended graph's edges among live slots in
// canonical order (compareEdges). The slice is the graph's own and the
// next mutation rewrites it; callers must not mutate or retain it.
// Canonical order matters: the SCC algorithm's unification loops walk
// edges in this order, so a graph grown one query at a time and a graph
// built in one batch drive identical union sequences and produce
// identical substitutions. Removal keeps the order, so only the edges
// committed since the last call are out of place: an arrival's handful
// is inserted where it belongs, a bulk (the batch build) is sorted with
// the rest.
func (g *IncrementalGraph) Edges() []ExtendedEdge {
	if len(g.edges)-g.sorted > 8 {
		slices.SortFunc(g.edges, compareEdges)
		g.sorted = len(g.edges)
	}
	for ; g.sorted < len(g.edges); g.sorted++ {
		e := g.edges[g.sorted]
		at, _ := slices.BinarySearchFunc(g.edges[:g.sorted], e, compareEdges)
		copy(g.edges[at+1:g.sorted+1], g.edges[at:g.sorted])
		g.edges[at] = e
	}
	return g.edges
}

// Unsafe returns the live slots that are unsafe in the current set,
// sorted ascending.
func (g *IncrementalGraph) Unsafe() []int {
	var out []int
	seen := map[int]bool{}
	for k, c := range g.fanout {
		if c > 1 && !seen[k[0]] {
			seen[k[0]] = true
			out = append(out, k[0])
		}
	}
	sort.Ints(out)
	return out
}
