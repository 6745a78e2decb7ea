package coord

import (
	"entangled/internal/eq"
	"entangled/internal/graph"
)

// PreprocessStats summarises the graph-building phase of the SCC
// Coordination Algorithm, isolated from database work. Figure 6 of the
// paper stress-tests exactly this phase.
type PreprocessStats struct {
	Queries       int
	ExtendedEdges int
	Edges         int // coordination-graph edges after collapsing
	Components    int // strongly connected components
	TopoOrder     []int
}

// Preprocess runs graph construction and preprocessing only: build the
// extended coordination graph, collapse it, condense into strongly
// connected components, and compute the processing order. No database
// queries are issued.
func Preprocess(qs []eq.Query) PreprocessStats {
	edges := ExtendedGraph(qs)
	g := coordinationGraph(len(qs), edges)
	dag, _, _ := g.Condense()
	order, err := dag.TopoOrder()
	if err != nil {
		panic(err) // unreachable: a condensation is always a DAG
	}
	return PreprocessStats{
		Queries:       len(qs),
		ExtendedEdges: len(edges),
		Edges:         g.M(),
		Components:    dag.N(),
		TopoOrder:     order,
	}
}

// ComponentsOf exposes the condensation of a query set's coordination
// graph: the component DAG and each component's member queries.
func ComponentsOf(qs []eq.Query) (dag *graph.Digraph, members [][]int) {
	g := CoordinationGraph(qs)
	dag, _, members = g.Condense()
	return dag, members
}
