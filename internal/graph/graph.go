package graph

import (
	"errors"
	"sort"
)

// Digraph is a simple directed graph. Parallel edges are collapsed;
// self-loops are allowed. The package comment states the ordering
// contract and who owns the slices its methods return.
type Digraph struct {
	n, m int
	// One arena holds every successor list: node u's is to[at : at+n],
	// in a block of n rounded up to a power of two; a list that fills
	// its block moves to one twice the size at the arena's end.
	span []span
	to   []int
	// AddEdge's duplicate filter: mark[v] == stamp iff src -> v is
	// present. Stamps only grow, so stale marks never match.
	src, stamp int
	mark       []int

	comp              []int // SCC
	index, low, stack []int32
	work              []sccFrame
	dag               *Digraph // Condense
	members           [][]int  // carved from flat
	flat              []int
	deg               []int32 // TopoOrder
	order             []int
}

// span places one node's successor list in the arena.
type span struct{ at, n int32 }

// New returns an empty digraph on n nodes.
func New(n int) *Digraph {
	g := &Digraph{}
	g.Reset(n)
	return g
}

// Reset empties the graph and resizes it to n nodes, keeping the
// capacity of every list and buffer.
func (g *Digraph) Reset(n int) {
	g.span = sized(g.span, n)
	clear(g.span)
	g.to, g.mark = g.to[:0], sized(g.mark, n)
	g.n, g.m, g.src = n, 0, -1
}

// sized returns xs with length n and unspecified contents, reallocating
// (with a quarter's headroom) only when capacity is short.
func sized[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n, n+n/4+8)
	}
	return xs[:n]
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// M returns the number of (distinct) edges.
func (g *Digraph) M() int { return g.m }

// AddEdge inserts the edge u -> v, collapsing duplicates. It is O(1)
// while consecutive calls share their source and O(out-degree of u)
// when the source changes (u's successors are re-marked).
func (g *Digraph) AddEdge(u, v int) {
	if u != g.src {
		g.src = u
		g.stamp++
		for _, w := range g.Succ(u) {
			g.mark[w] = g.stamp
		}
	}
	if g.mark[v] == g.stamp {
		return
	}
	g.mark[v] = g.stamp
	s := &g.span[u]
	if s.n&(s.n-1) == 0 { // 0 or a power of two: the block is full
		at := int32(len(g.to))
		g.to = append(g.to, g.to[s.at:s.at+s.n]...)
		g.to = append(g.to, make([]int, max(s.n, 1))...)
		s.at = at
	}
	g.to[s.at+s.n] = v
	s.n++
	g.m++
}

// Succ returns u's successor list (shared; do not mutate).
func (g *Digraph) Succ(u int) []int {
	s := g.span[u]
	return g.to[s.at : s.at+s.n : s.at+s.n]
}

// sccFrame is one level of SCC's DFS: a node and its next successor.
type sccFrame struct{ v, ei int32 }

// SCC computes strongly connected components with an iterative Tarjan
// algorithm. It returns comp (node -> component id) and the number of
// components. Component ids are in reverse topological order of the
// condensation: if there is an edge from component a to component b
// (a != b) then a > b, i.e. component 0 is a sink.
func (g *Digraph) SCC() (comp []int, ncomp int) {
	const unvisited = -1
	g.index, g.low, g.comp = sized(g.index, g.n), sized(g.low, g.n), sized(g.comp, g.n)
	index, low, comp := g.index, g.low, g.comp
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	// A visited node is on the Tarjan stack until it gets a component.
	stack, work := g.stack[:0], g.work[:0]
	next := int32(0)
	for root := int32(0); int(root) < g.n; root++ {
		if index[root] != unvisited {
			continue
		}
		work = append(work, sccFrame{root, 0})
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.ei == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
			}
			advanced := false
			for succ := g.Succ(int(v)); int(f.ei) < len(succ); {
				w := int32(succ[f.ei])
				f.ei++
				if index[w] == unvisited {
					work = append(work, sccFrame{w, 0})
					advanced = true
					break
				}
				if comp[w] == unvisited && low[w] < low[v] {
					low[v] = low[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	g.stack, g.work = stack, work
	return comp, ncomp
}

// Condense returns the condensation DAG of g (one node per SCC, edges
// between distinct components) plus the membership: comp maps original
// nodes to component ids and members lists each component's nodes in
// ascending order. Component ids follow SCC's reverse-topological
// numbering.
func (g *Digraph) Condense() (dag *Digraph, comp []int, members [][]int) {
	comp, ncomp := g.SCC()
	size := g.low[:ncomp] // free once SCC has returned
	clear(size)
	for _, c := range comp {
		size[c]++
	}
	g.flat, g.members = sized(g.flat, g.n), sized(g.members, ncomp)
	members = g.members
	off := 0
	for c, k := range size {
		members[c] = g.flat[off : off : off+int(k)]
		off += int(k)
	}
	for u, c := range comp {
		members[c] = append(members[c], u)
	}
	if g.dag == nil {
		g.dag = &Digraph{}
	}
	dag = g.dag
	dag.Reset(ncomp)
	// Component by component keeps AddEdge's source steady; each list
	// still fills in ascending-member order.
	for c, ms := range members {
		for _, u := range ms {
			for _, v := range g.Succ(u) {
				if comp[v] != c {
					dag.AddEdge(c, comp[v])
				}
			}
		}
	}
	return dag, comp, members
}

// ErrCycle is returned by TopoOrder on cyclic input.
var ErrCycle = errors.New("graph: not a DAG")

// TopoOrder returns a topological order (sources first) or ErrCycle.
func (g *Digraph) TopoOrder() ([]int, error) {
	g.deg = sized(g.deg, g.n)
	deg := g.deg
	clear(deg)
	for u := range g.span {
		for _, v := range g.Succ(u) {
			deg[v]++
		}
	}
	// order is its own FIFO: nodes enter as their in-degree reaches
	// zero and are expanded in place.
	order := sized(g.order, g.n)[:0]
	for u, d := range deg {
		if d == 0 {
			order = append(order, u)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, v := range g.Succ(order[head]) {
			deg[v]--
			if deg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	g.order = order
	if len(order) != g.n {
		return nil, ErrCycle
	}
	return order, nil
}

// StronglyConnected reports whether there is a directed path between
// every ordered pair of nodes (the paper's uniqueness condition on the
// coordination graph). The empty and single-node graphs count as
// strongly connected.
func (g *Digraph) StronglyConnected() bool {
	if g.n <= 1 {
		return true
	}
	_, ncomp := g.SCC()
	return ncomp == 1
}

// CountSimplePaths counts simple paths (no repeated edge) from u to v, up
// to the given cap; it returns min(count, cap). When u == v only paths of
// length >= 1 (cycles through u) are counted. Used to test the paper's
// single-connectedness property, which requires at most one simple path
// between every pair; callers pass cap=2.
func (g *Digraph) CountSimplePaths(u, v, cap int) int {
	type edge struct{ a, b int }
	usedEdge := map[edge]bool{}
	count := 0
	var dfs func(x int, steps int)
	dfs = func(x, steps int) {
		if count >= cap {
			return
		}
		if x == v && steps > 0 {
			count++
			return
		}
		for _, w := range g.Succ(x) {
			e := edge{x, w}
			if usedEdge[e] {
				continue
			}
			usedEdge[e] = true
			dfs(w, steps+1)
			delete(usedEdge, e)
			if count >= cap {
				return
			}
		}
	}
	dfs(u, 0)
	return count
}

// Edges returns all edges sorted lexicographically; handy for tests.
func (g *Digraph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		for _, v := range g.Succ(u) {
			out = append(out, [2]int{u, v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
