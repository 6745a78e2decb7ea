// Package graph provides the directed-graph substrate the paper's
// implementation takes from JGraphT: strongly connected components
// (Tarjan), condensation into a component DAG, topological order and
// reachability. Nodes are integers 0..n-1.
//
// Ordering contract: a node's successor list is in first-insertion
// order (duplicates collapse onto the first), and SCC numbering, member
// order, the DAG's successor order and TopoOrder are functions of that
// order alone — which is what lets a graph grown event by event equal
// one built in a batch. A Digraph is also its own scratch: Reset keeps
// every buffer, and the results of SCC, Condense and TopoOrder are
// owned by the graph until its next such call.
package graph
