package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// oracleDigraph is the map-based Digraph this package shipped before
// Digraph lost its per-node maps and gained reusable buffers: a fresh
// map per node to collapse duplicates, fresh slices for every result.
// It is kept, AddEdge/SCC/Condense/TopoOrder only, as the reference the
// rewrite must equal position for position — batch equivalence of the
// streaming coordinator rests on identical Tarjan numbering and
// identical successor order, not merely on an equal partition.
type oracleDigraph struct {
	n   int
	adj [][]int
	has []map[int]bool
}

func newOracle(n int) *oracleDigraph {
	return &oracleDigraph{n: n, adj: make([][]int, n), has: make([]map[int]bool, n)}
}

func (g *oracleDigraph) AddEdge(u, v int) {
	if g.has[u] == nil {
		g.has[u] = map[int]bool{}
	}
	if g.has[u][v] {
		return
	}
	g.has[u][v] = true
	g.adj[u] = append(g.adj[u], v)
}

func (g *oracleDigraph) SCC() (comp []int, ncomp int) {
	const unvisited = -1
	index := make([]int, g.n)
	low := make([]int, g.n)
	onStack := make([]bool, g.n)
	comp = make([]int, g.n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	next := 0

	type frame struct {
		v  int
		ei int
	}
	for root := 0; root < g.n; root++ {
		if index[root] != unvisited {
			continue
		}
		work := []frame{{root, 0}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.ei == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ei < len(g.adj[v]) {
				w := g.adj[v][f.ei]
				f.ei++
				if index[w] == unvisited {
					work = append(work, frame{w, 0})
					advanced = true
					break
				}
				if onStack[w] && low[w] < low[v] {
					low[v] = low[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
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
	return comp, ncomp
}

func (g *oracleDigraph) Condense() (dag *oracleDigraph, comp []int, members [][]int) {
	comp, ncomp := g.SCC()
	dag = newOracle(ncomp)
	members = make([][]int, ncomp)
	for u := 0; u < g.n; u++ {
		members[comp[u]] = append(members[comp[u]], u)
		for _, v := range g.adj[u] {
			if comp[u] != comp[v] {
				dag.AddEdge(comp[u], comp[v])
			}
		}
	}
	return dag, comp, members
}

func (g *oracleDigraph) TopoOrder() ([]int, error) {
	deg := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			deg[v]++
		}
	}
	var queue []int
	for u := 0; u < g.n; u++ {
		if deg[u] == 0 {
			queue = append(queue, u)
		}
	}
	var order []int
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.adj[u] {
			deg[v]--
			if deg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != g.n {
		return nil, ErrCycle
	}
	return order, nil
}

// randomMultigraph draws an edge list on n nodes with duplicates and
// self-loops, in an order that keeps switching source.
func randomMultigraph(rng *rand.Rand, n int) [][2]int {
	edges := make([][2]int, rng.Intn(4*n+1))
	for i := range edges {
		edges[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		if i > 0 && rng.Intn(4) == 0 {
			edges[i] = edges[rng.Intn(i)] // a duplicate, anywhere later
		}
		if rng.Intn(8) == 0 {
			edges[i][1] = edges[i][0] // a self-loop
		}
	}
	return edges
}

// sameAsOracle fills a fresh oracle with edges and requires g — already
// holding the same edges — to agree with it on everything the
// coordination algorithms read: successor order, component ids, member
// order, the DAG's successor order and the topological order (of the
// DAG, and ErrCycle-or-order of the graph itself).
func sameAsOracle(t *testing.T, g *Digraph, n int, edges [][2]int) bool {
	t.Helper()
	o := newOracle(n)
	for _, e := range edges {
		o.AddEdge(e[0], e[1])
	}
	ints := func(a, b []int) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }
	if g.N() != n {
		t.Logf("n: got %d want %d", g.N(), n)
		return false
	}
	m := 0
	for u := 0; u < n; u++ {
		m += len(o.adj[u])
		if !ints(g.Succ(u), o.adj[u]) {
			t.Logf("succ(%d): got %v want %v", u, g.Succ(u), o.adj[u])
			return false
		}
	}
	if g.M() != m {
		t.Logf("m: got %d want %d", g.M(), m)
		return false
	}
	wantOrder, wantErr := o.TopoOrder()
	gotOrder, gotErr := g.TopoOrder()
	if gotErr != wantErr || !ints(gotOrder, wantOrder) {
		t.Logf("graph topo: got %v,%v want %v,%v", gotOrder, gotErr, wantOrder, wantErr)
		return false
	}
	odag, ocomp, omembers := o.Condense()
	dag, comp, members := g.Condense()
	if !ints(comp, ocomp) {
		t.Logf("comp: got %v want %v", comp, ocomp)
		return false
	}
	if len(members) != len(omembers) || dag.N() != odag.n {
		t.Logf("components: got %d/%d want %d", len(members), dag.N(), len(omembers))
		return false
	}
	for c := range members {
		if !ints(members[c], omembers[c]) {
			t.Logf("members[%d]: got %v want %v", c, members[c], omembers[c])
			return false
		}
		if !ints(dag.Succ(c), odag.adj[c]) {
			t.Logf("dag succ(%d): got %v want %v", c, dag.Succ(c), odag.adj[c])
			return false
		}
	}
	wantOrder, wantErr = odag.TopoOrder()
	gotOrder, gotErr = dag.TopoOrder()
	if gotErr != wantErr || !ints(gotOrder, wantOrder) {
		t.Logf("dag topo: got %v,%v want %v,%v", gotOrder, gotErr, wantOrder, wantErr)
		return false
	}
	return true
}

// Property: on random multigraphs the map-free Digraph equals the
// map-based one it replaced, position for position.
func TestQuickDigraphMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func() bool {
		n := 1 + rng.Intn(64)
		edges := randomMultigraph(rng, n)
		g := New(n)
		for _, e := range edges {
			g.AddEdge(e[0], e[1])
		}
		return sameAsOracle(t, g, n, edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: one Digraph taken through Reset across shrinking and
// growing sizes — its condensation computed every time, so every
// buffer is dirty — equals a fresh graph at each step. Anything read
// beyond the current length, or left over from the previous fill, shows
// up as a difference.
func TestQuickDigraphResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := New(0)
	f := func() bool {
		for _, n := range []int{64, 1 + rng.Intn(64), 2, 1 + rng.Intn(64), 0, 1 + rng.Intn(64)} {
			var edges [][2]int
			if n > 0 {
				edges = randomMultigraph(rng, n)
			}
			g.Reset(n)
			for _, e := range edges {
				g.AddEdge(e[0], e[1])
			}
			if !sameAsOracle(t, g, n, edges) {
				t.Logf("after Reset(%d)", n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A graph that is Reset and refilled with the same shape reaches a
// steady state in which AddEdge, Condense and TopoOrder allocate
// nothing.
func TestDigraphSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(15))
	const n = 64
	edges := randomMultigraph(rng, n)
	g := New(n)
	fill := func() {
		g.Reset(n)
		for _, e := range edges {
			g.AddEdge(e[0], e[1])
		}
		dag, _, _ := g.Condense()
		if _, err := dag.TopoOrder(); err != nil {
			t.Fatal(err)
		}
	}
	fill()
	if got := testing.AllocsPerRun(20, fill); got != 0 {
		t.Fatalf("steady-state fill allocates %v times, want 0", got)
	}
}
