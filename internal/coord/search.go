package coord

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// varTable numbers one query's variables, so that a search unifies
// numbers, not names: ids holds, for every argument of the query — its
// postconditions', heads' then body's, in order (args) — the number of
// its variable, or -1 for a constant. Variables are numbered 0, 1, ...
// by first occurrence in that order, and n is how many there are. A
// query is numbered once, when it is admitted; a name is read back off
// the query only where something is rendered.
type varTable struct {
	ids []int32
	n   int32
}

// args yields every argument of q with its position: postconditions,
// heads, then body.
func args(q eq.Query) iter.Seq2[int, eq.Term] {
	return func(yield func(int, eq.Term) bool) {
		k := 0
		for _, atoms := range [...][]eq.Atom{q.Post, q.Head, q.Body} {
			for _, a := range atoms {
				for _, t := range a.Args {
					if !yield(k, t) {
						return
					}
					k++
				}
			}
		}
	}
}

// numberAll numbers the variables of every query of qs, in one backing
// array.
func numberAll(qs []eq.Query) []varTable {
	_, vars := numberInto(qs, nil, nil)
	return vars
}

// numberInto is numberAll writing into ids and vars, when they have the
// room, and returning them: a caller that numbers set after set keeps
// both.
func numberInto(qs []eq.Query, ids []int32, vars []varTable) ([]int32, []varTable) {
	size := 0
	for _, q := range qs {
		size += argCount(q.Post) + argCount(q.Head) + argCount(q.Body)
	}
	ids, vars = slices.Grow(ids[:0], size), slices.Grow(vars[:0], len(qs))[:len(qs)]
	for i, q := range qs {
		from := len(ids)
		var buf [8]string
		names := buf[:0]
		for _, t := range args(q) {
			id := -1
			if t.IsVar() {
				if id = slices.Index(names, t.Name); id < 0 {
					id, names = len(names), append(names, t.Name)
				}
			}
			ids = append(ids, int32(id))
		}
		vars[i] = varTable{ids[from:len(ids):len(ids)], int32(len(names))}
	}
	return ids, vars
}

func argCount(atoms []eq.Atom) (n int) {
	for _, a := range atoms {
		n += len(a.Args)
	}
	return n
}

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
	base  []int32   // query -> the number of its first variable in subst, -1 outside the set
	set   []int     // the reachable set, in assembly order
	body  []eq.Atom // its combined body
	terms []int32   // the body's term table (unify.Subst.SetTerms)

	edges []ExtendedEdge // the canonical edges mgu unifies
	from  []int32        // query q's edges are edges[from[q]:from[q+1]]
	slot  []int32        // class -> its slot in the database's binding, or -1
}

// index makes edges, in canonical order over n queries, the ones mgu
// unifies, grouped by source query: a search visits only its set's.
// Whoever changes the edges indexes them again before the next mgu.
func (sr *search) index(edges []ExtendedEdge, n int) {
	sr.edges, sr.from = edges, sized(sr.from, n+1)
	e := 0
	for q := range sr.from {
		for e < len(edges) && edges[e].FromQ < q {
			e++
		}
		sr.from[q] = int32(e)
	}
}

// number resets sr.subst to the variables of set's queries, numbered
// from 0 in set order, each in a class of its own.
func (sr *search) number(qs []eq.Query, vars []varTable, set []int) {
	if sr.subst == nil {
		sr.subst = unify.New()
	}
	sr.base = sized(sr.base, len(qs))
	for q := range sr.base {
		sr.base[q] = -1
	}
	n := int32(0)
	for _, q := range set {
		sr.base[q] = n
		n += vars[q].n
	}
	sr.subst.Reset(int(n))
}

// mgu leaves in sr.subst the most general unifier of set, numbered: every
// indexed edge with both ends in set is unified, in the canonical edge
// order — a set member's edges, members ascending. That order fixes the
// union sequence, hence every class representative — the variables
// rendered queries show — so the same set gives the same substitution
// whenever it is recomputed. It reports false when the edges clash.
func (sr *search) mgu(qs []eq.Query, vars []varTable, set []int) bool {
	sr.number(qs, vars, set)
	for q, b := range sr.base {
		if b < 0 {
			continue
		}
		for _, e := range sr.edges[sr.from[q]:sr.from[q+1]] {
			if sr.base[e.ToQ] >= 0 && !sr.unify(qs, vars, e) {
				return false
			}
		}
	}
	return true
}

// unify makes edge e's postcondition and head equal under sr.subst, the
// queries' variables numbered from sr.base.
func (sr *search) unify(qs []eq.Query, vars []varTable, e ExtendedEdge) bool {
	from, to := qs[e.FromQ], qs[e.ToQ]
	p, h := from.Post[e.PostIdx], to.Head[e.HeadIdx]
	// A table lists the post arguments, then the head ones.
	pv := vars[e.FromQ].ids[argCount(from.Post[:e.PostIdx]):]
	hv := vars[e.ToQ].ids[argCount(to.Post)+argCount(to.Head[:e.HeadIdx]):]
	bp, bh := sr.base[e.FromQ], sr.base[e.ToQ]
	for j := range p.Args {
		if sr.subst.Unify(p.Args[j], h.Args[j], bp+pv[j], bh+hv[j]) != nil {
			return false
		}
	}
	return true
}

// combine assembles in sr.body the bodies of set's queries, in set
// order — the order fixes the join plan, hence the witness — and makes
// their numbered arguments sr.subst's term table.
func (sr *search) combine(qs []eq.Query, vars []varTable, set []int) []eq.Atom {
	sr.body, sr.terms = sr.body[:0], sr.terms[:0]
	for _, q := range set {
		sr.body = append(sr.body, qs[q].Body...)
		ids := vars[q].ids
		for _, id := range ids[len(ids)-argCount(qs[q].Body):] {
			if id >= 0 {
				id += sr.base[q]
			}
			sr.terms = append(sr.terms, id)
		}
	}
	sr.subst.SetTerms(sr.terms)
	return sr.body
}

// ground is the component search of §4, the only one: unify the
// reachable set and ask the database, once, for a tuple satisfying the
// combined body under the unifier. The status is the one traces report
// ("grounded", "unification failed", "no tuple"); the binding is the
// database's answer when grounded; dead, on "no tuple", the query no
// set holding it grounds (deadQuery), or -1. Until the next call on sr,
// sr.subst and sr.body are what the database was asked.
func (sr *search) ground(qs []eq.Query, vars []varTable, set []int, store db.Store) (status string, bind db.Binding, dead int, err error) {
	dead = -1
	if !sr.mgu(qs, vars, set) {
		return "unification failed", db.Binding{}, dead, nil
	}
	bind, found, err := store.SolveUnder(sr.combine(qs, vars, set), sr.subst)
	switch {
	case err != nil:
		return "", db.Binding{}, dead, err
	case !found:
		if atom, ok := bind.Empty(); ok {
			dead = sr.deadQuery(qs, set, atom)
		}
		return "no tuple", db.Binding{}, dead, nil
	}
	return "grounded", bind, dead, nil
}

// deadQuery maps atom of the combined body, which matches no row
// (db.Binding.Empty), to the member of set whose body holds it if the
// unifier bound none of its variables, to a constant or one another —
// then it was the query's own atom, renamed, and every unifier only
// specialises it, so no set holding the query grounds — else to -1.
func (sr *search) deadQuery(qs []eq.Query, set []int, atom int) int {
	terms := sr.terms[argCount(sr.body[:atom]):][:len(sr.body[atom].Args)]
	for i, id := range terms {
		if id < 0 {
			continue
		}
		rep, _, bound := sr.subst.Class(id)
		for _, o := range terms[:i] {
			if o >= 0 && o != id {
				r, _, _ := sr.subst.Class(o)
				bound = bound || r == rep
			}
		}
		if bound {
			return -1
		}
	}
	for _, q := range set {
		if atom < len(qs[q].Body) {
			return q
		}
		atom -= len(qs[q].Body)
	}
	return -1
}

// witness reads candidate c's assignment off its MGU, recomputed here —
// with no database query: c.binding answers the one query already
// asked, under this same substitution.
func (sr *search) witness(qs []eq.Query, vars []varTable, c grounded, fb *fallback) (map[int]map[string]eq.Value, error) {
	if !sr.mgu(qs, vars, c.order) {
		return nil, fmt.Errorf("coord: grounded set %v does not unify", c.order) // a bug: it did when it was grounded
	}
	sr.combine(qs, vars, c.order)
	return sr.values(qs, vars, c.order, c.binding, fb)
}

// values converts the state combine left — set's MGU and combined body —
// and the database's binding of that body back into per-query
// assignments of the original variable names. The binding's slots are
// the body's unbound classes by first occurrence, as the database
// numbers them. Variables left unconstrained by both the unifier and
// the database are assigned the fallback (Definition 1 only requires
// that some value be assigned; any domain value works since such
// variables occur in no body atom and their post/head occurrences were
// equalised by unification). The maps come from the pools
// Result.Release fills, so a released result's maps render the next.
func (sr *search) values(qs []eq.Query, vars []varTable, set []int, bind db.Binding, fb *fallback) (map[int]map[string]eq.Value, error) {
	s := sr.subst
	sr.slot = sized(sr.slot, s.Len())
	for i := range sr.slot {
		sr.slot[i] = -1
	}
	next := int32(0)
	for _, id := range sr.terms {
		if id < 0 {
			continue
		}
		if rep, _, bound := s.Class(id); !bound && sr.slot[rep] < 0 {
			sr.slot[rep], next = next, next+1
		}
	}
	values := pooledMap[int, map[string]eq.Value](&valueMaps, len(set))
	for _, q := range set {
		m := pooledMap[string, eq.Value](&assignments, int(vars[q].n))
		seen := int32(0) // numbered by first occurrence: a variable is new when its number is
		for k, t := range args(qs[q]) {
			if vars[q].ids[k] != seen {
				continue
			}
			seen++
			switch rep, c, bound := s.Class(sr.base[q] + vars[q].ids[k]); {
			case bound:
				m[t.Name] = c
			case sr.slot[rep] >= 0:
				m[t.Name] = bind.At(int(sr.slot[rep]))
			default:
				val, err := fb.value()
				if err != nil {
					return nil, err
				}
				m[t.Name] = val
			}
		}
		values[q] = m
	}
	return values, nil
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

// fold makes c's row the union of {c} and its successors' rows, which
// must be folded already.
func (r *reachRows) fold(c int, succs []int) {
	row := r.row(c)
	clear(row)
	row[c/64] |= 1 << (c % 64)
	for _, succ := range succs {
		for w, word := range r.row(succ) {
			row[w] |= word
		}
	}
}

// rankKey is what the rank walk compares first: |R(c)| and the least
// slot in R(c). Only sets that tie on both are compared whole.
type rankKey struct{ size, least int32 }

// appendSet appends to buf the positions of R(c), c's row folded:
// reached components ascending, each one's members ascending — the
// order the set's bodies are combined in.
func (r *reachRows) appendSet(buf []int, c int, members [][]int) []int {
	for w, word := range r.row(c) {
		for ; word != 0; word &= word - 1 {
			buf = append(buf, members[w*64+bits.TrailingZeros64(word)]...)
		}
	}
	return buf
}
