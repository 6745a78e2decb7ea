package coord

import (
	"fmt"
	"io"
	"strings"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/graph"
	"entangled/internal/unify"
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

// sccSetup is the state shared by the sequential and parallel component
// walks: the extended graph, alpha-renamed queries, pruning outcome and
// the condensation of the coordination graph with its processing order.
type sccSetup struct {
	edges   []ExtendedEdge
	renamed []eq.Query
	alive   []bool
	dag     *graph.Digraph
	members [][]int
	order   []int // component ids, reverse topological
}

// prepareSCC runs everything up to the per-component searches: safety
// check, alpha renaming, §6.1 pruning, condensation and topological
// ordering.
func prepareSCC(qs []eq.Query, store db.Store, opts Options) (*sccSetup, error) {
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
	return &sccSetup{edges: edges, renamed: renamed, alive: alive, dag: dag, members: members, order: order}, nil
}

// runSCC executes the SCC Coordination Algorithm and returns every
// grounded candidate (the family {R(q)}), in processing order.
// SCCCoordinate applies the selector to pick one; AllCandidates exposes
// the whole family.
func runSCC(qs []eq.Query, store db.Store, opts Options) ([]Candidate, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	if opts.Parallelism > 1 {
		return runSCCParallel(qs, store, opts)
	}
	tr := opts.Trace
	st, err := prepareSCC(qs, store, opts)
	if err != nil {
		return nil, err
	}
	edges, renamed, alive := st.edges, st.renamed, st.alive
	dag, members, order := st.dag, st.members, st.order

	nc := dag.N()
	reach := make([][]bool, nc)
	failed := make([]bool, nc)
	compSubst := make([]*unify.Subst, nc) // incremental mode: per-component MGU
	inSet := make([]bool, len(qs))        // scratch, cleared after each component
	var cands []Candidate

	for _, c := range order {
		ev := ComponentEvent{Members: append([]int(nil), members[c]...)}
		if !alive[members[c][0]] {
			failed[c] = true
			if tr != nil {
				ev.Status = "pruned"
				tr.Components = append(tr.Components, ev)
			}
			continue
		}
		r := make([]bool, nc)
		r[c] = true
		ok := true
		for _, succ := range dag.Succ(c) {
			if failed[succ] {
				ok = false
				break
			}
			for i, b := range reach[succ] {
				if b {
					r[i] = true
				}
			}
		}
		reach[c] = r
		if !ok {
			failed[c] = true
			if tr != nil {
				ev.Status = "successor failed"
				tr.Components = append(tr.Components, ev)
			}
			continue
		}

		var set []int
		for cc := 0; cc < nc; cc++ {
			if r[cc] {
				set = append(set, members[cc]...)
			}
		}
		for _, i := range set {
			inSet[i] = true
		}
		// Pre-size the forest: the reachable set's queries contribute a
		// handful of renamed variables each.
		s := unify.NewSized(2*len(set) + 4)
		unifyOK := true
		if opts.IncrementalUnify {
			// The paper's implementation: reuse each successor's combined
			// MGU and only unify this component's own postconditions.
			for _, succ := range dag.Succ(c) {
				if err := s.MergeFrom(compSubst[succ]); err != nil {
					unifyOK = false
					break
				}
			}
			if unifyOK {
				inComp := make(map[int]bool, len(members[c]))
				for _, i := range members[c] {
					inComp[i] = true
				}
				for _, e := range edges {
					if !inComp[e.FromQ] || !inSet[e.ToQ] {
						continue
					}
					p := renamed[e.FromQ].Post[e.PostIdx]
					h := renamed[e.ToQ].Head[e.HeadIdx]
					if err := s.UnifyAtoms(p, h); err != nil {
						unifyOK = false
						break
					}
				}
			}
		} else {
			// Recompute the MGU of the whole reachable set from scratch.
			for _, e := range edges {
				if !inSet[e.FromQ] || !inSet[e.ToQ] {
					continue
				}
				p := renamed[e.FromQ].Post[e.PostIdx]
				h := renamed[e.ToQ].Head[e.HeadIdx]
				if err := s.UnifyAtoms(p, h); err != nil {
					unifyOK = false
					break
				}
			}
		}
		for _, i := range set {
			inSet[i] = false // inSet is only read by the unify loops above
		}
		if !unifyOK {
			failed[c] = true
			if tr != nil {
				ev.Status = "unification failed"
				ev.Set = sortedCopy(set)
				tr.Components = append(tr.Components, ev)
			}
			continue
		}

		compSubst[c] = s

		nAtoms := 0
		for _, i := range set {
			nAtoms += len(renamed[i].Body)
		}
		body := make([]eq.Atom, 0, nAtoms)
		for _, i := range set {
			body = append(body, renamed[i].Body...)
		}
		bind, found, err := store.SolveUnder(body, s)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			ev.Set = sortedCopy(set)
			ev.Combined = renderCombined(s.ApplyAll(body))
		}
		if !found {
			failed[c] = true
			if tr != nil {
				ev.Status = "no tuple"
				tr.Components = append(tr.Components, ev)
			}
			continue
		}
		if tr != nil {
			ev.Status = "grounded"
			ev.SetSize = len(set)
			tr.Components = append(tr.Components, ev)
		}
		cands = append(cands, Candidate{Set: sortedCopy(set), subst: s, binding: bind})
	}

	return cands, nil
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
