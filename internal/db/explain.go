package db

import (
	"fmt"
	"strings"

	"entangled/internal/eq"
)

// PlanStep describes one join step of a compiled evaluation plan.
type PlanStep struct {
	Atom eq.Atom
	// Access is "index(col)" for an index probe or "scan".
	Access string
	// BoundArgs is how many of the atom's arguments are bound when the
	// step runs (constants plus variables bound by earlier steps).
	BoundArgs int
	// Rows is the relation's size (the scan's worst case).
	Rows int
}

// Explain returns the plan the executor runs for the body, without
// touching the data. It is derived from the same compiled plan object
// (shared through the plan cache) that Solve/SolveAll execute, so the
// output is the true plan: the frozen join order, each step's statically
// bound columns, and the index each step would probe right now.
func (in *Instance) Explain(body []eq.Atom) ([]PlanStep, error) {
	p, err := planFor(in, &in.plans, body, nil)
	if err != nil {
		return nil, err
	}
	steps := make([]PlanStep, len(p.steps))
	for i := range p.steps {
		st := &p.steps[i]
		pt := p.rels[st.rel].parts[0]
		pt.mu.RLock()
		access := "scan"
		if in.UseIndexes {
			for _, bc := range st.bound {
				if _, has := pt.indexes[bc.col]; has {
					access = fmt.Sprintf("index(%s)", pt.Attrs[bc.col])
					break
				}
			}
		}
		rows := pt.rows
		pt.mu.RUnlock()
		steps[i] = PlanStep{Atom: body[st.atom], Access: access, BoundArgs: len(st.bound), Rows: rows}
	}
	return steps, nil
}

// RenderPlan formats an Explain result as indented text.
func RenderPlan(plan []PlanStep) string {
	var sb strings.Builder
	for i, s := range plan {
		fmt.Fprintf(&sb, "%d. %s  [%s, %d bound, %d rows]\n", i+1, s.Atom, s.Access, s.BoundArgs, s.Rows)
	}
	return sb.String()
}
