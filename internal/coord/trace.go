package coord

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"entangled/internal/eq"
)

// Trace records the steps the SCC Coordination Algorithm took, for
// debugging and for coordctl's -explain flag. Populate it by passing a
// non-nil Options.Trace to SCCCoordinate; a run that fails adds nothing.
// The JSON tags define the trace's wire encoding (internal/api): a
// decoded trace is field-for-field equal to the one the server
// rendered, so over-the-wire traces compare byte-for-byte against
// local batch runs.
type Trace struct {
	// Pruned lists queries removed by the §6.1 provider cascade, in
	// pruning order.
	Pruned []PruneEvent `json:"pruned,omitempty"`
	// Components holds one event per strongly connected component, in
	// reverse topological order — the paper's order of processing,
	// whichever order the walk searched them in.
	Components []ComponentEvent `json:"components,omitempty"`
}

// PruneEvent is one preprocessing removal: a query with a
// postcondition that no unpruned head provides for. Bodies are not
// probed; one the database cannot satisfy shows as its component's
// "no tuple".
type PruneEvent struct {
	Query  int    `json:"query"`
	Reason string `json:"reason"` // "unsatisfiable postcondition"
}

// ComponentEvent is the outcome of processing one component. Status is
// one of:
//
//   - "grounded", "unification failed", "no tuple": the component's
//     set was searched, with that outcome;
//   - "outranked": it was not searched — a larger set, or one of equal
//     size that sorts first, grounded before the walk reached it (the
//     rank walk of SCCCoordinate and sessions);
//   - "dead member": it was not searched — its set holds a query that
//     an earlier search of the pass found no set holding it grounds
//     (the rank walk);
//   - "successor failed": it was not searched — a component it reaches
//     failed, so nothing coordinates through it (AllCandidates' walk);
//   - "pruned": the §6.1 provider cascade removed its queries.
//
// Only a searched component has a Set, and a Combined unless its set
// failed to unify.
type ComponentEvent struct {
	Members  []int  `json:"members"`            // queries in this component
	Set      []int  `json:"set,omitempty"`      // R(q): the full candidate set (members + reachable)
	Status   string `json:"status"`             // see above
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

// combined renders the conjunctive query last assembled on sr as the
// database saw it: the body resolved under the unifier, each unbound
// class named for its representative, q<n>.<name>, n the query's number
// in num (its own index when num is nil).
func (sr *search) combined(qs []eq.Query, vars []varTable, num []int) string {
	names := make([]string, sr.subst.Len())
	for q, b := range sr.base {
		if b < 0 {
			continue // not in the set
		}
		for k, t := range args(qs[q]) {
			if id := vars[q].ids[k]; id >= 0 {
				names[b+id] = "q" + strconv.Itoa(at(num, q)) + "." + t.Name
			}
		}
	}
	return eq.JoinAtoms(sr.subst.Resolve(sr.body, func(rep int32) string { return names[rep] }))
}
