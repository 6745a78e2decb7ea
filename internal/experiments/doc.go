// Package experiments regenerates every figure of the paper's
// experimental evaluation (§6). Each RunFigureN function executes the
// corresponding workload sweep and returns a Series whose points mirror
// the figure's x-axis; the cmd/coordbench binary prints them as text
// tables.
//
// The substrate differs from the paper's testbed (in-memory Go engine
// instead of MySQL+JDBC+Java), so absolute milliseconds differ; the
// shapes — linear growth in the number of queries (Figures 4, 5, 8),
// negligible graph-processing overhead (Figure 6) and linear growth in
// the number of candidate values (Figure 7) — are the reproduction
// targets. See EXPERIMENTS.md.
package experiments
