package netgen

import (
	"math/rand"
	"sort"

	"entangled/internal/graph"
)

// Chain returns the list structure of Figure 4: node i points at node
// i+1; the last node has no successor.
func Chain(n int) *graph.Digraph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Complete returns the complete directed graph (no self-loops), used as
// the Friends table of the consistent-coordination experiments.
func Complete(n int) *graph.Digraph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// Cycle returns a directed cycle on n nodes.
func Cycle(n int) *graph.Digraph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// BarabasiAlbert generates a scale-free directed network by preferential
// attachment: nodes arrive one at a time and attach m edges to existing
// nodes chosen with probability proportional to their current (in +
// out) degree, so in-degrees follow a power law — the model the paper
// uses for realistic coordination structures. Edges point from the new
// node to its chosen targets (a query coordinates with earlier queries).
func BarabasiAlbert(n, m int, rng *rand.Rand) *graph.Digraph {
	if m < 1 {
		panic("netgen: BarabasiAlbert needs m >= 1")
	}
	g := graph.New(n)
	if n == 0 {
		return g
	}
	// repeated holds each node once per unit of degree plus once
	// unconditionally, so new and isolated nodes remain reachable
	// targets (the standard implementation trick).
	var repeated []int
	repeated = append(repeated, 0)
	for v := 1; v < n; v++ {
		targets := map[int]bool{}
		want := m
		if v < m {
			want = v
		}
		for len(targets) < want {
			t := repeated[rng.Intn(len(repeated))]
			if t != v {
				targets[t] = true
			}
		}
		// Iterate the target set in sorted order: ranging over the map
		// would feed map-iteration randomness into `repeated` and make
		// same-seed runs produce different graphs.
		ts := make([]int, 0, len(targets))
		for t := range targets {
			ts = append(ts, t)
		}
		sort.Ints(ts)
		for _, t := range ts {
			g.AddEdge(v, t)
			repeated = append(repeated, t)
		}
		repeated = append(repeated, v)
	}
	return g
}

// ErdosRenyi generates G(n, p): each ordered pair (i, j), i != j, is an
// edge independently with probability p.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *graph.Digraph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// SlashdotSize is the number of rows of the paper's Slashdot table.
const SlashdotSize = 82168
