package coord

import (
	"fmt"
	"io"
	"math/bits"
	"strings"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/graph"
)

// Trace records the steps the SCC Coordination Algorithm took, for
// debugging and for coordctl's -explain flag. Populate it by passing a
// non-nil Options.Trace to SCCCoordinate.
// The JSON tags define the trace's wire encoding (internal/api): a
// decoded trace is field-for-field equal to the one the server
// rendered, so over-the-wire traces compare byte-for-byte against
// local batch runs.
type Trace struct {
	// Pruned lists queries removed by the §6.1 preprocessing, with the
	// reason ("body" or "postcondition").
	Pruned []PruneEvent `json:"pruned,omitempty"`
	// Components holds one event per strongly connected component, in
	// the order processed (reverse topological).
	Components []ComponentEvent `json:"components,omitempty"`
}

// PruneEvent is one preprocessing removal.
type PruneEvent struct {
	Query  int    `json:"query"`
	Reason string `json:"reason"` // "unsatisfiable body" or "unsatisfiable postcondition"
}

// ComponentEvent is the outcome of processing one component.
type ComponentEvent struct {
	Members  []int  `json:"members"`            // queries in this component
	Set      []int  `json:"set,omitempty"`      // R(q): the full candidate set (members + reachable)
	Status   string `json:"status"`             // "grounded", "unification failed", "no tuple", "successor failed", "pruned"
	SetSize  int    `json:"set_size,omitempty"` // len(Set) when grounded
	Combined string `json:"combined,omitempty"` // the combined conjunctive query sent to the database (when any)
}

// Render writes the trace as indented text, naming queries by ID.
func (t *Trace) Render(w io.Writer, qs []eq.Query) error {
	var sb strings.Builder
	if len(t.Pruned) > 0 {
		sb.WriteString("pruned during preprocessing:\n")
		for _, p := range t.Pruned {
			fmt.Fprintf(&sb, "  %s: %s\n", qs[p.Query].ID, p.Reason)
		}
	}
	fmt.Fprintf(&sb, "components processed (reverse topological order):\n")
	for i, c := range t.Components {
		ids := make([]string, len(c.Members))
		for j, m := range c.Members {
			ids[j] = qs[m].ID
		}
		fmt.Fprintf(&sb, "  %d. {%s}: %s", i+1, strings.Join(ids, ", "), c.Status)
		if c.Status == "grounded" {
			fmt.Fprintf(&sb, " (candidate set of %d)", c.SetSize)
		}
		sb.WriteString("\n")
		if c.Combined != "" {
			fmt.Fprintf(&sb, "     query: %s\n", c.Combined)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// sccWalk is one run of the component walk: the extended graph,
// alpha-renamed queries, pruning outcome and the condensation of the
// coordination graph with its processing order, then what the walk
// fills in, in that order.
type sccWalk struct {
	store   db.Store
	edges   []ExtendedEdge
	renamed []eq.Query
	alive   []bool
	dag     *graph.Digraph
	members [][]int
	order   []int // component ids, reverse topological

	reach  reachRows
	failed []bool           // component -> no coordinating set through it
	sr     search           // the walk's scratch; witnesses are read on it afterwards
	cands  []Candidate      // the grounded candidates, in processing order
	events []ComponentEvent // one per component, in processing order; nil unless traced
}

// prepareSCC runs everything up to the per-component searches: safety
// check, alpha renaming, §6.1 pruning, condensation and topological
// ordering.
func prepareSCC(qs []eq.Query, store db.Store, opts Options) (*sccWalk, error) {
	tr := opts.Trace
	edges := ExtendedGraph(qs)
	if !opts.SkipSafetyCheck {
		if bad := unsafeIn(edges, nil); len(bad) > 0 {
			return nil, fmt.Errorf("%w: unsafe queries %v", ErrUnsafe, bad)
		}
	}
	renamed := renameAll(qs)

	alive := make([]bool, len(qs))
	for i := range alive {
		alive[i] = true
	}
	if !opts.SkipPruning {
		if err := pruneTraced(renamed, edges, store, alive, tr); err != nil {
			return nil, err
		}
	}

	g := graph.New(len(qs))
	for _, e := range edges {
		if alive[e.FromQ] && alive[e.ToQ] {
			g.AddEdge(e.FromQ, e.ToQ)
		}
	}
	dag, _, members := g.Condense()

	order, err := dag.TopoOrder()
	if err != nil {
		return nil, err // cannot happen: condensation is a DAG
	}
	reverse(order)
	nc := dag.N()
	w := &sccWalk{
		store: store, edges: edges, renamed: renamed, alive: alive, dag: dag, members: members, order: order,
		failed: make([]bool, nc),
	}
	w.reach.reset(nc)
	if tr != nil {
		w.events = make([]ComponentEvent, 0, nc)
	}
	return w, nil
}

// runSCC executes the SCC Coordination Algorithm and leaves every
// grounded candidate (the family {R(q)}) in the walk's cands, in
// processing order. SCCCoordinate applies the selector to pick one;
// AllCandidates exposes the whole family. A run that fails leaves
// opts.Trace without component events.
func runSCC(qs []eq.Query, store db.Store, opts Options) (*sccWalk, error) {
	if len(qs) == 0 {
		return &sccWalk{}, nil
	}
	w, err := prepareSCC(qs, store, opts)
	if err != nil {
		return nil, err
	}
	for _, c := range w.order {
		if err := w.processComponent(c); err != nil {
			return nil, err
		}
	}
	if w.events != nil {
		opts.Trace.Components = append(opts.Trace.Components, w.events...)
	}
	return w, nil
}

// processComponent is one step of the walk: fold the successors'
// reachability into c's, and search the reachable set. It reads only
// state of components that were processed before it.
func (w *sccWalk) processComponent(c int) error {
	sr := &w.sr
	var ev ComponentEvent
	switch {
	case !w.alive[w.members[c][0]]:
		ev.Status = "pruned"
	case !w.reach.fold(c, w.dag.Succ(c), w.failed):
		ev.Status = "successor failed"
	default:
		sr.set = sr.set[:0]
		for i, word := range w.reach.row(c) {
			for ; word != 0; word &= word - 1 {
				sr.set = append(sr.set, w.members[i*64+bits.TrailingZeros64(word)]...)
			}
		}
		status, bind, err := sr.ground(w.renamed, w.edges, sr.set, w.store)
		if err != nil {
			return err
		}
		ev.Status = status
		if w.events != nil {
			ev.Set = sortedCopy(sr.set)
			if status != "unification failed" {
				ev.Combined = sr.combined(nil, nil)
			}
		}
		if status == "grounded" {
			ev.SetSize = len(sr.set)
			w.cands = append(w.cands, Candidate{Set: sortedCopy(sr.set), binding: bind})
		}
	}
	w.failed[c] = ev.Status != "grounded"
	if w.events != nil {
		ev.Members = append([]int(nil), w.members[c]...)
		w.events = append(w.events, ev)
	}
	return nil
}

// pruneTraced is the §6.1 preprocessing: one body-satisfiability probe
// per query, then the provider cascade, recording events when traced.
func pruneTraced(renamed []eq.Query, edges []ExtendedEdge, store db.Store, alive []bool, tr *Trace) error {
	for i, q := range renamed {
		sat, err := store.Satisfiable(q.Body)
		if err != nil {
			return err
		}
		if !sat {
			alive[i] = false
			if tr != nil {
				tr.Pruned = append(tr.Pruned, PruneEvent{Query: i, Reason: "unsatisfiable body"})
			}
		}
	}
	var c cascade
	pruned := c.run(renamed, edges, alive, nil)
	if tr != nil {
		tr.Pruned = append(tr.Pruned, pruned...)
	}
	return nil
}

func renderCombined(body []eq.Atom) string {
	parts := make([]string, len(body))
	for i, a := range body {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}
