package coord

import (
	"cmp"
	"slices"

	"entangled/internal/eq"
	"entangled/internal/unify"
)

// atomRef locates one head or postcondition atom: the i-th of query q's
// heads (or posts).
type atomRef struct {
	q, i int32
	atom eq.Atom
}

// atomBuckets prefilters unification candidates for one side (heads or
// posts) of the extended graph. Every atom filed is one row of refs;
// the buckets hold row numbers. Atoms are bucketed per relation by the
// constant in their first argument; atoms whose first argument is a
// variable (or that have no arguments) can match anything over their
// relation and live in the wildcard bucket. A probe with a constant
// first argument touches only the matching constant bucket plus the
// wildcards; a probe without one touches the whole relation. Every
// candidate surviving the prefilter is still checked with
// unify.Unifiable, so the buckets are purely an optimisation — Figure
// 6's near-linear graph construction relies on them.
type atomBuckets struct {
	refs []atomRef
	rels map[string]*relBucket
}

// relBucket indexes one relation's rows of atomBuckets.refs.
type relBucket struct {
	byConst map[string][]int32 // first-argument constant -> rows
	wild    []int32            // rows with a variable or absent first argument
	all     []int32            // every row
}

// firstConst returns the constant in a's first argument, if it has one.
func firstConst(a eq.Atom) (string, bool) {
	if len(a.Args) == 0 || a.Args[0].IsVar() {
		return "", false
	}
	return a.Args[0].Name, true
}

// insert files the i-th atom of query q under its buckets.
func (b *atomBuckets) insert(q, i int, a eq.Atom) {
	b.refs = append(b.refs, atomRef{int32(q), int32(i), a})
	b.file(int32(len(b.refs)-1), a)
}

// file enters row, which holds atom a, into a's buckets.
func (b *atomBuckets) file(row int32, a eq.Atom) {
	r := b.rels[a.Rel]
	if r == nil {
		r = &relBucket{byConst: map[string][]int32{}}
		b.rels[a.Rel] = r
	}
	r.all = append(r.all, row)
	if c, ok := firstConst(a); ok {
		r.byConst[c] = append(r.byConst[c], row)
	} else {
		r.wild = append(r.wild, row)
	}
}

// compact drops the rows of queries remap sends to -1 and renumbers the
// rest. The buckets are refilled in place, in row order, from the rows
// that remain; a constant or a relation left with none is deleted, so
// the maps hold what the live set names, not the session's history.
func (b *atomBuckets) compact(remap []int) {
	refs := b.refs
	b.reset(0)
	for _, ref := range refs {
		if q := remap[ref.q]; q >= 0 {
			b.insert(q, int(ref.i), ref.atom)
		}
	}
	clear(refs[len(b.refs):]) // let go of the departed atoms
	b.refs = fit(b.refs)
	b.sweep(fit[int32])
}

// reset empties b for a refill of about n atoms, keeping the capacity
// of refs and of every bucket. A relation or constant the last fill
// filed keeps its bucket, so a refill naming it again appends without
// allocating; one left empty since the fill before goes, so the maps
// hold at most the last two fills' keys.
func (b *atomBuckets) reset(n int) {
	b.refs = slices.Grow(b.refs[:0], n)
	if b.rels == nil {
		b.rels = map[string]*relBucket{}
	}
	b.sweep(func(rows []int32) []int32 { return rows[:0] })
}

// sweep deletes every relation and constant left without rows and
// passes every other bucket through f.
func (b *atomBuckets) sweep(f func([]int32) []int32) {
	for rel, r := range b.rels {
		if len(r.all) == 0 {
			delete(b.rels, rel)
			continue
		}
		r.all, r.wild = f(r.all), f(r.wild)
		for c, rows := range r.byConst {
			if len(rows) == 0 {
				delete(r.byConst, c)
			} else {
				r.byConst[c] = f(rows)
			}
		}
	}
}

// slack is the shrink rule of a compaction: a buffer goes back when more
// than two thirds of its capacity is unused. One that lost only its
// tombstones keeps its append headroom (giving back at one half has a
// steady session reallocate after every compaction), one whose set
// shrank for good gives the memory back.
func slack(capacity, used int) bool { return capacity > 3*used }

// fit returns xs, moved to a backing array of its own length when the
// one it has is slack.
func fit[T any](xs []T) []T {
	if slack(cap(xs), len(xs)) {
		return append([]T(nil), xs...)
	}
	return xs
}

// unifiable calls yield with the (query, atom index) of every filed
// atom that unifies with a and whose query is not gone.
func (b *atomBuckets) unifiable(a eq.Atom, gone []bool, yield func(q, i int)) {
	r := b.rels[a.Rel]
	if r == nil {
		return
	}
	buckets := [2][]int32{r.all}
	if c, ok := firstConst(a); ok {
		buckets = [2][]int32{r.byConst[c], r.wild}
	}
	for _, rows := range buckets {
		for _, row := range rows {
			if ref := &b.refs[row]; !gone[ref.q] && unify.Unifiable(a, ref.atom) {
				yield(int(ref.q), int(ref.i))
			}
		}
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
	n    int    // slots handed out, including removed ones
	live int    // slots holding a query
	gone []bool // slot -> removed

	heads, posts atomBuckets

	// Edges among live slots: the first sorted of them in canonical
	// order, the rest as committed since Edges last ran.
	edges  []ExtendedEdge
	sorted int
	fanout postFanout
}

// postFanout counts, per (slot, postcondition index), the live heads
// the postcondition unifies with: one counter per postcondition atom
// ever filed, a slot's counters adjacent and in post order.
type postFanout struct {
	off []int32 // slot -> where its counters start; last, where the next slot's will
	n   []int32
}

// of returns slot q's counters. A slot not filed yet — the one a Probe
// is asked about — has none.
func (f *postFanout) of(q int) []int32 {
	if f == nil || q+1 >= len(f.off) {
		return nil
	}
	return f.n[f.off[q]:f.off[q+1]]
}

// count returns the fanout of slot q's p-th postcondition, 0 for a slot
// not filed yet.
func (f *postFanout) count(q, p int) int32 {
	if c := f.of(q); p < len(c) {
		return c[p]
	}
	return 0
}

// NewIncrementalGraph returns an empty graph index.
func NewIncrementalGraph() *IncrementalGraph {
	g := &IncrementalGraph{}
	g.fill(nil)
	return g
}

// fill makes g the graph of qs, the batch special case: g is reset —
// emptied, keeping every buffer's capacity, and sized up front from
// qs's head and post counts — and every query filed.
func (g *IncrementalGraph) fill(qs []eq.Query) {
	heads, posts := 0, 0
	for _, q := range qs {
		heads += len(q.Head)
		posts += len(q.Post)
	}
	g.n, g.live, g.sorted, g.edges = 0, 0, 0, g.edges[:0]
	g.gone = slices.Grow(g.gone[:0], len(qs))
	g.heads.reset(heads)
	g.posts.reset(posts)
	g.fanout.off = append(slices.Grow(g.fanout.off[:0], len(qs)+1), 0)
	g.fanout.n = slices.Grow(g.fanout.n[:0], posts)
	for _, q := range qs {
		g.Add(q)
	}
}

// Live reports whether slot i holds a query that has not been removed.
func (g *IncrementalGraph) Live(i int) bool { return i >= 0 && i < g.n && !g.gone[i] }

// probeNew appends to out the edges a new query in slot slot would
// contribute: its postconditions against every live head (including its
// own), and every live postcondition against its heads. The graph is
// not modified.
func (g *IncrementalGraph) probeNew(slot int, q eq.Query, out []ExtendedEdge) []ExtendedEdge {
	// The newcomer's posts against live heads plus the newcomer's own
	// heads (self-edges are part of the extended graph).
	for pi, p := range q.Post {
		g.heads.unifiable(p, g.gone, func(toQ, hi int) {
			out = append(out, ExtendedEdge{slot, pi, toQ, hi})
		})
		for hi, h := range q.Head {
			if unify.Unifiable(p, h) {
				out = append(out, ExtendedEdge{slot, pi, slot, hi})
			}
		}
	}
	// Live posts of earlier queries against the newcomer's heads.
	for hi, h := range q.Head {
		g.posts.unifiable(h, g.gone, func(fromQ, pi int) {
			out = append(out, ExtendedEdge{fromQ, pi, slot, hi})
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
	edges = g.probeNew(g.n, q, nil)
	slices.SortFunc(edges, compareEdges)
	return edges, unsafeIn(edges, &g.fanout)
}

// Add commits query q to the next slot and returns the slot index.
// Safety is not enforced here: fill checks a whole set once through
// Unsafe, and Incremental.Add probes first and commits its edge list,
// paying for the probe once.
func (g *IncrementalGraph) Add(q eq.Query) (slot int) {
	from := len(g.edges)
	g.edges = g.probeNew(g.n, q, g.edges)
	return g.file(q, from)
}

// commit files q under the next slot with a previously probed edge
// list. added must come from Probe on the current graph state with no
// intervening mutation.
func (g *IncrementalGraph) commit(q eq.Query, added []ExtendedEdge) (slot int) {
	from := len(g.edges)
	g.edges = append(g.edges, added...)
	return g.file(q, from)
}

// file hands q the next slot: its atoms go into the buckets, and the
// edges it contributed, g.edges[from:], into the fanout.
func (g *IncrementalGraph) file(q eq.Query, from int) (slot int) {
	slot = g.n
	g.n++
	g.live++
	g.gone = append(g.gone, false)
	for hi, h := range q.Head {
		g.heads.insert(slot, hi, h)
	}
	for pi, p := range q.Post {
		g.posts.insert(slot, pi, p)
	}
	g.fanout.n = append(g.fanout.n, make([]int32, len(q.Post))...)
	g.fanout.off = append(g.fanout.off, int32(len(g.fanout.n)))
	for _, e := range g.edges[from:] {
		g.fanout.of(e.FromQ)[e.PostIdx]++
	}
	return slot
}

// Remove tombstones slot i and drops its incident edges. Bucket entries
// are left in place and skipped during probes; compact sweeps them out.
// Removing an absent or already-removed slot is a no-op.
func (g *IncrementalGraph) Remove(i int) {
	if !g.Live(i) {
		return
	}
	g.gone[i] = true
	g.live--
	kept := g.Edges()[:0] // canonical first: filtering keeps it so
	for _, e := range g.edges {
		if e.FromQ == i || e.ToQ == i {
			g.fanout.of(e.FromQ)[e.PostIdx]--
			continue
		}
		kept = append(kept, e)
	}
	g.edges, g.sorted = kept, len(kept)
}

// compact renumbers the live slots through remap (old slot -> new, -1
// for a removed one; monotone) and forgets the removed ones, leaving
// the graph that adding the live queries in slot order would build.
// Nothing is probed or unified: every edge has both ends live already,
// and a monotone renumbering keeps the canonical order.
func (g *IncrementalGraph) compact(remap []int) {
	g.heads.compact(remap)
	g.posts.compact(remap)
	for i, e := range g.edges {
		g.edges[i].FromQ, g.edges[i].ToQ = remap[e.FromQ], remap[e.ToQ]
	}
	g.edges = fit(g.edges)
	f := &g.fanout
	at := int32(0)
	for old, slot := range remap {
		if slot >= 0 {
			at += int32(copy(f.n[at:], f.of(old)))
			f.off[slot+1] = at
		}
	}
	f.off, f.n = fit(f.off[:g.live+1]), fit(f.n[:at])
	g.n = g.live
	g.gone = fit(g.gone[:g.n])
	clear(g.gone)
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
	for slot := 0; slot < g.n; slot++ {
		if !g.gone[slot] && slices.ContainsFunc(g.fanout.of(slot), func(c int32) bool { return c > 1 }) {
			out = append(out, slot)
		}
	}
	return out
}
