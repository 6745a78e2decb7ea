package coord

import (
	"entangled/internal/eq"
	"entangled/internal/graph"
)

// ExtendedEdge is one edge of the extended coordination graph: the
// PostIdx-th postcondition atom of query FromQ unifies with the
// HeadIdx-th head atom of query ToQ (indices into the query slice).
type ExtendedEdge struct {
	FromQ, PostIdx int
	ToQ, HeadIdx   int
}

// ExtendedGraph computes all edges of the extended coordination graph of
// qs: one edge per unifiable (postcondition atom, head atom) pair,
// including pairs within a single query. Edges come back in the
// canonical (FromQ, PostIdx, ToQ, HeadIdx) order.
//
// The computation is the batch special case of IncrementalGraph — add
// every query, read the edges once — so the streaming sessions that
// grow the graph one arrival at a time and this one-shot path share a
// single code path and produce identical edge lists. Head and post
// atoms are bucketed by relation and by the constant in their first
// argument, so a postcondition with a constant first argument (the
// common "R(User, x)" pattern) only probes the handful of heads that
// could match instead of all of them; Figure 6's graph-construction
// sweep relies on this being near-linear in practice.
func ExtendedGraph(qs []eq.Query) []ExtendedEdge {
	var g IncrementalGraph
	g.fill(qs)
	return g.Edges()
}

// CoordinationGraph collapses the extended graph's parallel edges into
// the coordination graph: node per query, edge i -> j when some
// postcondition of query i unifies with some head of query j.
func CoordinationGraph(qs []eq.Query) *graph.Digraph {
	return coordinationGraph(len(qs), ExtendedGraph(qs))
}

func coordinationGraph(n int, edges []ExtendedEdge) *graph.Digraph {
	g := graph.New(n)
	for _, e := range edges {
		g.AddEdge(e.FromQ, e.ToQ)
	}
	return g
}

// UnsafeQueries returns the indices of queries that are unsafe in qs: a
// query is unsafe if one of its postcondition atoms unifies with more
// than one head atom appearing in the set (Definition 2).
func UnsafeQueries(qs []eq.Query) []int {
	return unsafeIn(ExtendedGraph(qs), nil)
}

// unsafeIn returns, ascending, the queries owning a postcondition with
// more than one unifiable head, counting the edges given — in canonical
// order, so one postcondition's are adjacent — on top of the fanout
// already recorded in prior (nil for none).
func unsafeIn(edges []ExtendedEdge, prior *postFanout) []int {
	var out []int
	for i, e := range edges {
		second := i > 0 && edges[i-1].FromQ == e.FromQ && edges[i-1].PostIdx == e.PostIdx
		if (second || prior.count(e.FromQ, e.PostIdx) > 0) && (len(out) == 0 || out[len(out)-1] != e.FromQ) {
			out = append(out, e.FromQ)
		}
	}
	return out
}

// IsSafe reports whether the whole set is safe (no unsafe query).
func IsSafe(qs []eq.Query) bool { return len(UnsafeQueries(qs)) == 0 }

// IsUnique reports whether a safe set is unique: its coordination graph
// has a directed path between every two vertices (Definition 3), i.e. it
// is strongly connected.
func IsUnique(qs []eq.Query) bool {
	return CoordinationGraph(qs).StronglyConnected()
}
