package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddEdgeDedup(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !slices.Equal(g.Succ(0), []int{1}) || len(g.Succ(1)) != 1 || slices.Contains(g.Succ(1), 0) {
		t.Fatalf("successors %v %v, want [1] [2]", g.Succ(0), g.Succ(1))
	}
}

func TestSCCChain(t *testing.T) {
	// 0 -> 1 -> 2: three singleton components.
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	comp, n := g.SCC()
	if n != 3 {
		t.Fatalf("ncomp = %d", n)
	}
	// Reverse topological numbering: edges go from higher to lower ids.
	if !(comp[0] > comp[1] && comp[1] > comp[2]) {
		t.Fatalf("comp = %v, want reverse-topological numbering", comp)
	}
}

func TestSCCCycle(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	comp, n := g.SCC()
	if n != 2 {
		t.Fatalf("ncomp = %d, want 2", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("cycle should be one component: %v", comp)
	}
	if comp[3] == comp[0] {
		t.Fatal("node 3 is its own component")
	}
}

func TestSCCSelfLoop(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	_, n := g.SCC()
	if n != 2 {
		t.Fatalf("ncomp = %d, want 2 (self loop is a singleton SCC)", n)
	}
}

func TestCondense(t *testing.T) {
	// Two 2-cycles joined by one edge.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2)
	g.AddEdge(1, 2)
	dag, comp, members := g.Condense()
	if dag.N() != 2 {
		t.Fatalf("dag has %d nodes", dag.N())
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] {
		t.Fatalf("comp = %v", comp)
	}
	if !slices.Contains(dag.Succ(comp[0]), comp[2]) {
		t.Fatal("condensation must keep the cross edge")
	}
	if len(members[comp[0]]) != 2 || len(members[comp[2]]) != 2 {
		t.Fatalf("members = %v", members)
	}
	if _, err := dag.TopoOrder(); err != nil {
		t.Fatalf("condensation must be a DAG: %v", err)
	}
}

func TestTopoOrder(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(1, 0)
	g.AddEdge(3, 2)
	g.AddEdge(2, 0)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("order %v violates edge %v", order, e)
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if _, err := g.TopoOrder(); err != ErrCycle {
		t.Fatalf("want ErrCycle, got %v", err)
	}
}

func TestReachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	r := g.Reachable(0)
	if !r[0] || !r[1] || !r[2] || r[3] {
		t.Fatalf("Reachable = %v", r)
	}
}

func TestStronglyConnected(t *testing.T) {
	if !New(0).StronglyConnected() || !New(1).StronglyConnected() {
		t.Fatal("trivial graphs are strongly connected")
	}
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if !g.StronglyConnected() {
		t.Fatal("3-cycle is strongly connected")
	}
	g2 := New(2)
	g2.AddEdge(0, 1)
	if g2.StronglyConnected() {
		t.Fatal("one-way pair is not strongly connected")
	}
}

func TestCountSimplePaths(t *testing.T) {
	// Diamond: two simple paths 0 -> 3.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	if got := g.CountSimplePaths(0, 3, 5); got != 2 {
		t.Fatalf("paths = %d, want 2", got)
	}
	if got := g.CountSimplePaths(0, 3, 1); got != 1 {
		t.Fatalf("capped paths = %d, want 1", got)
	}
	if got := g.CountSimplePaths(3, 0, 5); got != 0 {
		t.Fatalf("no reverse path, got %d", got)
	}
	// Cycle through the start node.
	c := New(3)
	c.AddEdge(0, 1)
	c.AddEdge(1, 2)
	c.AddEdge(2, 0)
	if got := c.CountSimplePaths(0, 0, 5); got != 1 {
		t.Fatalf("cycle count = %d, want 1", got)
	}
}

// TestCountSimplePathsTrails: a path may reuse a node but not an edge,
// two paths may share a prefix, a direct edge is a path of length one,
// and u == v counts no empty path.
func TestCountSimplePathsTrails(t *testing.T) {
	g := New(5)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {1, 3}, {2, 3}, {3, 4}} {
		g.AddEdge(e[0], e[1])
	}
	for _, c := range []struct{ u, v, want int }{
		{0, 3, 2}, // 0-1-3 and 0-1-2-3 share 0-1; the 0-1-0 cycle ends nowhere
		{2, 3, 1}, // the edge itself
		{3, 3, 0}, // no cycle through 3
		{4, 0, 0},
	} {
		if got := g.CountSimplePaths(c.u, c.v, 5); got != c.want {
			t.Fatalf("CountSimplePaths(%d, %d) = %d, want %d", c.u, c.v, got, c.want)
		}
	}
	// 0-1-3 and 0-2-1-3 share their last edge: found second, it is free
	// again once the first path has backtracked.
	h := New(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {2, 1}, {1, 3}} {
		h.AddEdge(e[0], e[1])
	}
	if got := h.CountSimplePaths(0, 3, 5); got != 2 {
		t.Fatalf("paths sharing a suffix: %d, want 2", got)
	}
}

// TestEdgesSorted: Edges sorts by source, then target, whatever order
// the edges were added in.
func TestEdgesSorted(t *testing.T) {
	g := New(3)
	for _, e := range [][2]int{{2, 0}, {1, 2}, {0, 2}, {0, 1}} {
		g.AddEdge(e[0], e[1])
	}
	if got, want := g.Edges(), [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 0}}; !slices.Equal(got, want) {
		t.Fatalf("Edges() = %v, want %v", got, want)
	}
}

// Reachable, the oracle naiveSCC is built on, returns the set of nodes reachable from u (including u).
func (g *Digraph) Reachable(u int) []bool {
	seen := make([]bool, g.n)
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Succ(v) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// naiveSCC computes components by mutual reachability, as an oracle.
func naiveSCC(g *Digraph) []int {
	n := g.N()
	reach := make([][]bool, n)
	for i := 0; i < n; i++ {
		reach[i] = g.Reachable(i)
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			continue
		}
		comp[i] = next
		for j := i + 1; j < n; j++ {
			if comp[j] < 0 && reach[i][j] && reach[j][i] {
				comp[j] = next
			}
		}
		next++
	}
	return comp
}

// Property: Tarjan agrees with the mutual-reachability oracle on random
// graphs, and the component numbering is reverse topological.
func TestQuickSCCMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		n := 1 + rng.Intn(10)
		g := New(n)
		for e := 0; e < rng.Intn(2*n+1); e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		comp, _ := g.SCC()
		want := naiveSCC(g)
		// Same partition (possibly different numbering).
		pairEq := func(c []int, i, j int) bool { return c[i] == c[j] }
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if pairEq(comp, i, j) != pairEq(want, i, j) {
					return false
				}
			}
		}
		// Reverse topological numbering across components.
		for _, e := range g.Edges() {
			if comp[e[0]] != comp[e[1]] && comp[e[0]] <= comp[e[1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: TopoOrder of a condensation is always valid.
func TestQuickCondensationTopo(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func() bool {
		n := 1 + rng.Intn(12)
		g := New(n)
		for e := 0; e < rng.Intn(3*n+1); e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		dag, comp, members := g.Condense()
		order, err := dag.TopoOrder()
		if err != nil {
			return false
		}
		pos := make([]int, dag.N())
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range g.Edges() {
			cu, cv := comp[e[0]], comp[e[1]]
			if cu != cv && pos[cu] >= pos[cv] {
				return false
			}
		}
		// members is a partition.
		seen := map[int]bool{}
		total := 0
		for _, ms := range members {
			for _, v := range ms {
				if seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
