package unify

import (
	"errors"
	"fmt"
	"slices"

	"entangled/internal/eq"
)

// ErrClash is returned when unification would force two distinct
// constants to be equal.
var ErrClash = errors.New("unify: constant clash")

// Subst is a substitution over numbered variables: a union-find forest
// over the ids 0..Len()-1, each class optionally bound to a constant,
// plus the term table of the body a store is asked to solve under it.
// The zero value is an empty substitution.
//
// A variable is a number, not a name: whoever unifies numbers its
// variables once, and a name is produced only where something is
// rendered. So find and union touch no map, path compression is a slice
// store, and Reset truncates. This matters because the SCC walk computes
// the MGU of one reachable set per component, on one Subst: the forest
// is storage, not garbage.
//
// The term table says which variable each argument of a body stands
// for, the body's arguments counted atom by atom (-1 for a constant):
// a store resolves a body term by its position, with Term.
type Subst struct {
	nodes []node  // variable id -> forest node
	terms []int32 // body argument -> its variable's id, or -1
}

// node is one union-find entry: parent link, union-by-rank rank
// (log2(#vars) fits an int8 easily) and, on roots, the class's constant
// binding.
type node struct {
	parent int32
	rank   int8
	bok    bool
	val    eq.Value
}

// New returns an empty substitution.
func New() *Subst { return &Subst{} }

// Reset empties s for a computation over n variables, each in a class
// of its own, with an empty term table. It keeps s's storage: after it
// s is indistinguishable from a new Subst given n fresh variables,
// whatever it held before, a clash included, and a caller that computes
// one MGU after another stops allocating once it has seen its largest.
func (s *Subst) Reset(n int) {
	s.nodes = slices.Grow(s.nodes[:0], n)[:n]
	for i := range s.nodes {
		s.nodes[i] = node{parent: int32(i)}
	}
	s.terms = nil
}

// Forget empties s like Reset(0) and drops every constant its storage
// holds, bound in this computation or an earlier, larger one, so that
// a pooled Subst pins no value. It keeps the storage.
func (s *Subst) Forget() {
	clear(s.nodes[:cap(s.nodes)])
	s.nodes, s.terms = s.nodes[:0], nil
}

// Len returns the number of variables.
func (s *Subst) Len() int { return len(s.nodes) }

// Fresh adds a variable in a class of its own and returns its id.
func (s *Subst) Fresh() int32 {
	s.nodes = append(s.nodes, node{parent: int32(len(s.nodes))})
	return int32(len(s.nodes) - 1)
}

// Clone returns an independent copy of s's classes, sharing its term
// table, which s never writes.
func (s *Subst) Clone() *Subst { return &Subst{nodes: slices.Clone(s.nodes), terms: s.terms} }

// find returns the root of i's class, halving the path on the way.
func (s *Subst) find(i int32) int32 {
	for s.nodes[i].parent != i {
		next := s.nodes[i].parent
		s.nodes[i].parent = s.nodes[next].parent // path halving
		i = next
	}
	return i
}

// Union merges the classes of variables a and b, keeping constant
// bindings consistent. On a tie of ranks a's root stays the root, so
// the representatives are a function of the sequence of unions alone.
func (s *Subst) Union(a, b int32) error {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return nil
	}
	na, nb := &s.nodes[ra], &s.nodes[rb]
	if na.bok && nb.bok && na.val != nb.val {
		return fmt.Errorf("%w: %s vs %s", ErrClash, na.val, nb.val)
	}
	if na.rank < nb.rank {
		ra, rb = rb, ra
		na, nb = nb, na
	}
	nb.parent = ra
	if na.rank == nb.rank {
		na.rank++
	}
	// The merged class keeps whichever constant either side had (they
	// are equal when both exist); the binding must live on the new root.
	if nb.bok {
		na.bok, na.val = true, nb.val
	}
	nb.bok, nb.val = false, ""
	return nil
}

// Bind binds variable v's class to constant c.
func (s *Subst) Bind(v int32, c eq.Value) error {
	n := &s.nodes[s.find(v)]
	if n.bok {
		if n.val != c {
			return fmt.Errorf("%w: bound to %s, cannot bind %s", ErrClash, n.val, c)
		}
		return nil
	}
	n.bok, n.val = true, c
	return nil
}

// Unify makes terms a and b equal under s, or returns ErrClash. va and
// vb are the ids of their variables, read only for a term that is one.
func (s *Subst) Unify(a, b eq.Term, va, vb int32) error {
	switch {
	case a.IsVar() && b.IsVar():
		return s.Union(va, vb)
	case a.IsVar():
		return s.Bind(va, b.Const())
	case b.IsVar():
		return s.Bind(vb, a.Const())
	case a.Name != b.Name:
		return fmt.Errorf("%w: %s vs %s", ErrClash, a.Name, b.Name)
	}
	return nil
}

// Class returns variable v's class: its representative, and the
// constant the class is bound to, if any.
func (s *Subst) Class(v int32) (rep int32, c eq.Value, bound bool) {
	r := s.find(v)
	return r, s.nodes[r].val, s.nodes[r].bok
}

// SetTerms makes terms the term table: terms[k] is the id of the
// variable the body's k-th argument stands for, or -1 for a constant.
// s keeps the slice, not a copy, until the next SetTerms or Reset.
func (s *Subst) SetTerms(terms []int32) { s.terms = terms }

// Term resolves the body's k-th argument, which must be a variable: its
// class, as Class reports it.
func (s *Subst) Term(k int) (rep int32, c eq.Value, bound bool) { return s.Class(s.terms[k]) }

// Resolve returns a copy of body read through the term table: a
// variable whose class is bound becomes the constant, any other a
// variable named name(rep) for its class's representative, asked in
// order of the body's arguments. It is for rendering; a store resolves
// by position, with Term.
func (s *Subst) Resolve(body []eq.Atom, name func(rep int32) string) []eq.Atom {
	out, k := make([]eq.Atom, len(body)), 0
	for i, a := range body {
		out[i] = eq.Atom{Rel: a.Rel, Args: slices.Clone(a.Args)}
		for j, t := range a.Args {
			if t.IsVar() {
				if rep, c, bound := s.Term(k); bound {
					out[i].Args[j] = eq.C(c)
				} else {
					out[i].Args[j] = eq.V(name(rep))
				}
			}
			k++
		}
	}
	return out
}

// Unifiable reports whether two atoms unify per the paper's §2.3
// definition: they are over the same relation and do not contain
// different constants in the same position. The two atoms come from
// different queries, so their variables live in disjoint namespaces —
// only constant clashes matter, and the check allocates nothing. (An
// edge admitted here can still fail the full MGU computation later, e.g.
// R(y, y) against R(A, B); the coordination algorithms re-check by
// unifying the queries' numbered variables.)
func Unifiable(a, b eq.Atom) bool {
	if a.Rel != b.Rel || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		ta, tb := a.Args[i], b.Args[i]
		if !ta.IsVar() && !tb.IsVar() && ta.Name != tb.Name {
			return false
		}
	}
	return true
}

// MGU computes the most general unifier of the given atom pairs: for
// every pair, the two atoms are made equal, their variables numbered by
// name in order of first sight. Returns nil and an error on clash, or
// on a pair over different relations or arities.
func MGU(pairs [][2]eq.Atom) (*Subst, error) {
	s, ids := New(), map[string]int32{}
	id := func(t eq.Term) int32 { // read by Unify only for a variable
		v, ok := ids[t.Name]
		if t.IsVar() && !ok {
			v = s.Fresh()
			ids[t.Name] = v
		}
		return v
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		if a.Rel != b.Rel || len(a.Args) != len(b.Args) {
			return nil, fmt.Errorf("unify: %s and %s differ in relation or arity", a, b)
		}
		for i := range a.Args {
			if err := s.Unify(a.Args[i], b.Args[i], id(a.Args[i]), id(b.Args[i])); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}
