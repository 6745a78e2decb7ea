package coord

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// search is the scratch a component search runs on. A substitution is
// not state that anything keeps: it is a pure function of (reachable
// set, canonical edges), so a search leaves its MGU here only until the
// next one resets it, and whoever needs a finished candidate's MGU again
// — to read its witness values, to render the query the database saw —
// recomputes it with mgu. There is one search per Incremental, batch
// request or session; it dies with its owner. The zero value is ready to use;
// it is not safe for concurrent use.
type search struct {
	subst *unify.Subst
	inSet []bool    // query -> in the set being unified
	set   []int     // the reachable set, in assembly order
	body  []eq.Atom // its combined body
}

// mgu leaves in sr.subst the most general unifier of set: every
// extended-graph edge with both ends in set is unified, in the canonical
// edge order. That order fixes the union sequence, hence every class
// representative — the names database bindings are keyed by and
// rendered queries show — so the same set gives the same substitution
// whenever it is recomputed. It reports false when the edges clash.
func (sr *search) mgu(renamed []eq.Query, edges []ExtendedEdge, set []int) bool {
	if sr.subst == nil {
		sr.subst = unify.New()
	}
	sr.subst.Reset()
	sr.inSet = zeroed(sr.inSet, len(renamed))
	for _, i := range set {
		sr.inSet[i] = true
	}
	for _, e := range edges {
		if !sr.inSet[e.FromQ] || !sr.inSet[e.ToQ] {
			continue
		}
		p := renamed[e.FromQ].Post[e.PostIdx]
		h := renamed[e.ToQ].Head[e.HeadIdx]
		if sr.subst.UnifyAtoms(p, h) != nil {
			return false
		}
	}
	return true
}

// combine assembles in sr.body the bodies of set's queries, in set
// order: the order fixes the join plan, hence the witness.
func (sr *search) combine(renamed []eq.Query, set []int) []eq.Atom {
	sr.body = sr.body[:0]
	for _, i := range set {
		sr.body = append(sr.body, renamed[i].Body...)
	}
	return sr.body
}

// ground is the component search of §4, the only one: unify the
// reachable set and ask the database, once, for a tuple satisfying the
// combined body under the unifier. The status is the one traces report
// ("grounded", "unification failed", "no tuple"); the binding is the
// database's answer when grounded. Until the next call on sr, sr.subst
// and sr.body are what the database was asked.
func (sr *search) ground(renamed []eq.Query, edges []ExtendedEdge, set []int, store db.Store) (string, db.Binding, error) {
	if !sr.mgu(renamed, edges, set) {
		return "unification failed", db.Binding{}, nil
	}
	bind, found, err := store.SolveUnder(sr.combine(renamed, set), sr.subst)
	switch {
	case err != nil:
		return "", db.Binding{}, err
	case !found:
		return "no tuple", db.Binding{}, nil
	}
	return "grounded", bind, nil
}

// combined renders the conjunctive query last assembled on sr as the
// database saw it: the body resolved under the unifier. A non-nil pos
// moves each variable's alpha-renaming prefix from its query's serial
// to the position of its slot (serials is by slot, ascending) — on the
// terms, where a variable is known to be one and its name to start
// with the varPrefix its query was renamed with.
func (sr *search) combined(serials, pos []int) string {
	body := sr.subst.ApplyAll(sr.body)
	for _, a := range body {
		for j, t := range a.Args {
			if pos != nil && t.IsVar() {
				dot := strings.IndexByte(t.Name, '.')
				serial, _ := strconv.Atoi(t.Name[1:dot])
				slot, _ := slices.BinarySearch(serials, serial)
				a.Args[j].Name = varPrefix(pos[slot]) + t.Name[dot+1:]
			}
		}
	}
	return renderCombined(body)
}

// witness reads candidate c's assignment off its MGU, recomputed here —
// with no database query: c.binding answers the one query already
// asked, under this same substitution.
func (sr *search) witness(qs, renamed []eq.Query, edges []ExtendedEdge, c Candidate, fb *fallback) (map[int]map[string]eq.Value, error) {
	if !sr.mgu(renamed, edges, c.Set) {
		return nil, fmt.Errorf("coord: grounded set %v does not unify", c.Set) // a bug: it did when it was grounded
	}
	return extractValues(qs, renamed, c.Set, sr.subst, c.binding, fb)
}

// fallback is the domain value given to variables that neither
// unification nor grounding constrains. Reading the domain scans the
// whole database, so it happens on first need and at most once per run
// (per pass, in a session); a run without such a variable never asks.
type fallback struct {
	store db.Store
	known bool
	val   eq.Value
}

// value returns the fallback, or an error when the database is empty:
// Definition 1 draws every value from the instance domain.
func (f *fallback) value() (eq.Value, error) {
	if !f.known {
		dom := f.store.Domain()
		if len(dom) == 0 {
			return "", fmt.Errorf("coord: free variables but empty database domain")
		}
		f.val, f.known = dom[0], true
	}
	return f.val, nil
}

// reachRows holds, for every component of a condensation, the set of
// components it reaches (itself included): rows of one bitset, so a
// walk allocates them once and folds successors in a word at a time.
type reachRows struct {
	words int
	bits  []uint64
}

// reset sizes r for nc components, with unspecified contents: fold
// initialises a row before anything reads it.
func (r *reachRows) reset(nc int) {
	r.words = (nc + 63) / 64
	r.bits = sized(r.bits, nc*r.words)
}

func (r *reachRows) row(c int) []uint64 { return r.bits[c*r.words : (c+1)*r.words] }

// fold makes c's row the union of {c} and its successors' rows. It
// reports false, leaving the row unspecified, when a successor failed:
// nothing coordinates through c then, and nothing will read its row.
func (r *reachRows) fold(c int, succs []int, failed []bool) bool {
	row := r.row(c)
	clear(row)
	row[c/64] |= 1 << (c % 64)
	for _, succ := range succs {
		if failed[succ] {
			return false
		}
		for w, word := range r.row(succ) {
			row[w] |= word
		}
	}
	return true
}
