package consistent

import (
	"fmt"

	"entangled/internal/eq"
)

// This file implements the formal classification of §5: Definitions 7
// (A-coordinating), 8 (A-non-coordinating) and 9 (A-consistent) over
// entangled queries of the section's general form
//
//	{R(y1, f1), R(y2, c2), ...}
//	R(x, User) :- S(x, ax1..axd), F(User, f1), S(yi, ai1..aid), ...
//
// The checks let callers validate that a hand-written entangled query
// set is within the fragment the Consistent Coordination Algorithm is
// proven for (Proposition 1).

// GeneralForm is the §5 decomposition of an entangled query: the user's
// own S-atom and one S-atom per coordination partner.
type GeneralForm struct {
	User     eq.Value
	Self     eq.Atom   // S(x, ax1, ..., axd)
	Partners []eq.Atom // S(yi, ai1, ..., aid), in postcondition order
}

// ParseGeneralForm checks that q has the §5 shape over the schema and
// decomposes it. The head must be R(x, User) with constant user and
// variable key; every postcondition must be R(yi, partner); each yi must
// be the key of exactly one S-atom of the body.
func ParseGeneralForm(sch Schema, q eq.Query) (GeneralForm, error) {
	var gf GeneralForm
	if len(q.Head) != 1 || len(q.Head[0].Args) != 2 {
		return gf, fmt.Errorf("consistent: query %s: head must be R(x, User)", q.ID)
	}
	head := q.Head[0]
	if head.Args[0].IsVar() == false || head.Args[1].IsVar() {
		return gf, fmt.Errorf("consistent: query %s: head must bind a variable key to a constant user", q.ID)
	}
	gf.User = head.Args[1].Const()
	keyVar := head.Args[0].Name

	// Index the body's S-atoms by their key term.
	sAtoms := map[string]eq.Atom{}
	for _, b := range q.Body {
		if b.Rel != sch.Table {
			continue
		}
		if len(b.Args) <= sch.KeyCol || !b.Args[sch.KeyCol].IsVar() {
			return gf, fmt.Errorf("consistent: query %s: S-atom %s must have a variable key", q.ID, b)
		}
		k := b.Args[sch.KeyCol].Name
		if _, dup := sAtoms[k]; dup {
			return gf, fmt.Errorf("consistent: query %s: two S-atoms share key variable %s", q.ID, k)
		}
		sAtoms[k] = b
	}
	self, ok := sAtoms[keyVar]
	if !ok {
		return gf, fmt.Errorf("consistent: query %s: no S-atom carries the head key %s", q.ID, keyVar)
	}
	gf.Self = self

	for _, p := range q.Post {
		if p.Rel != head.Rel || len(p.Args) != 2 {
			return gf, fmt.Errorf("consistent: query %s: postcondition %s must be R(y, partner)", q.ID, p)
		}
		if !p.Args[0].IsVar() {
			return gf, fmt.Errorf("consistent: query %s: postcondition %s must have a variable key", q.ID, p)
		}
		pa, ok := sAtoms[p.Args[0].Name]
		if !ok {
			return gf, fmt.Errorf("consistent: query %s: postcondition key %s has no S-atom", q.ID, p.Args[0].Name)
		}
		gf.Partners = append(gf.Partners, pa)
	}
	return gf, nil
}

// IsACoordinating implements Definition 7: for every attribute in attrs,
// the user specified the same constant or variable for himself and all
// his coordination partners (a^x_j == a^i_j syntactically).
func (gf GeneralForm) IsACoordinating(attrs []int) bool {
	for _, j := range attrs {
		for _, pa := range gf.Partners {
			if pa.Args[j] != gf.Self.Args[j] {
				return false
			}
		}
	}
	return true
}

// IsANonCoordinating implements Definition 8: for every attribute in
// attrs, all partner terms are distinct variables (and the user's own
// term, when a variable, is distinct from them too).
func (gf GeneralForm) IsANonCoordinating(attrs []int) bool {
	for _, j := range attrs {
		seen := map[string]bool{}
		for _, pa := range gf.Partners {
			t := pa.Args[j]
			if !t.IsVar() || seen[t.Name] {
				return false
			}
			seen[t.Name] = true
		}
		if self := gf.Self.Args[j]; self.IsVar() && seen[self.Name] {
			return false
		}
	}
	return true
}

// IsAConsistent implements Definition 9: A-coordinating on the schema's
// coordination attributes and non-coordinating on the remaining
// attributes of S (everything except the key and A). A query not of the
// general form, or an S-atom without arity arguments, is an error.
func IsAConsistent(sch Schema, q eq.Query, arity int) (bool, error) {
	gf, err := ParseGeneralForm(sch, q)
	if err != nil {
		return false, err
	}
	for _, a := range append([]eq.Atom{gf.Self}, gf.Partners...) {
		if len(a.Args) != arity {
			return false, fmt.Errorf("consistent: query %s: S-atom %s has %d arguments, %s has %d", q.ID, a, len(a.Args), sch.Table, arity)
		}
	}
	inA := map[int]bool{sch.KeyCol: true}
	for _, c := range sch.CoordCols {
		inA[c] = true
	}
	var rest []int
	for c := 0; c < arity; c++ {
		if !inA[c] {
			rest = append(rest, c)
		}
	}
	return gf.IsACoordinating(sch.CoordCols) && gf.IsANonCoordinating(rest), nil
}
