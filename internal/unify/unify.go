package unify

import (
	"errors"
	"fmt"
	"sort"

	"entangled/internal/eq"
)

// ErrClash is returned when unification would force two distinct
// constants to be equal.
var ErrClash = errors.New("unify: constant clash")

// Subst is a substitution: a union-find forest over variable names, each
// class optionally bound to a constant. The zero value is not usable;
// call New.
//
// Variable names are interned to dense integer ids on first sight, so
// the forest lives in one flat node slice: find/union touch no maps
// beyond the one name -> id lookup, and path compression is a slice
// store instead of a map assignment. This matters because the SCC walk
// computes the MGU of one reachable set per component — union-find is a
// top entry in the coordination profiles — and it does so on one Subst,
// Reset between components, so the forest is storage, not garbage.
type Subst struct {
	ids   map[string]int // variable name -> dense id
	names []string       // id -> name
	nodes []node         // id -> forest node
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
func New() *Subst {
	return &Subst{ids: map[string]int{}}
}

// Reset empties s for a new computation, keeping its storage: after it s
// is indistinguishable from New() — same interning order, same
// representatives, same errors — whatever it held before, a clash
// included. A caller that computes one MGU after another on the same
// Subst stops allocating once it has seen its largest.
func (s *Subst) Reset() {
	clear(s.ids)
	s.names = s.names[:0]
	s.nodes = s.nodes[:0]
}

// Clone returns an independent deep copy of s.
func (s *Subst) Clone() *Subst {
	c := &Subst{
		ids:   make(map[string]int, len(s.ids)),
		names: append([]string(nil), s.names...),
		nodes: append([]node(nil), s.nodes...),
	}
	for k, v := range s.ids {
		c.ids[k] = v
	}
	return c
}

// id interns a variable name, recording it in the forest on first
// sight (its own singleton class).
func (s *Subst) id(v string) int {
	i, ok := s.ids[v]
	if !ok {
		i = len(s.names)
		s.ids[v] = i
		s.names = append(s.names, v)
		s.nodes = append(s.nodes, node{parent: int32(i)})
	}
	return i
}

// findID returns the root of i's class, halving the path on the way.
func (s *Subst) findID(i int) int {
	for int(s.nodes[i].parent) != i {
		next := int(s.nodes[i].parent)
		s.nodes[i].parent = s.nodes[next].parent // path halving
		i = next
	}
	return i
}

func (s *Subst) find(v string) string {
	return s.names[s.findID(s.id(v))]
}

// union merges the classes of variables a and b, keeping constant
// bindings consistent.
func (s *Subst) union(a, b string) error {
	ra, rb := s.findID(s.id(a)), s.findID(s.id(b))
	if ra == rb {
		return nil
	}
	na, nb := &s.nodes[ra], &s.nodes[rb]
	if na.bok && nb.bok && na.val != nb.val {
		return fmt.Errorf("%w: %s=%s vs %s=%s", ErrClash, a, na.val, b, nb.val)
	}
	if na.rank < nb.rank {
		ra, rb = rb, ra
		na, nb = nb, na
	}
	nb.parent = int32(ra)
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

// bindConst binds variable v's class to constant c.
func (s *Subst) bindConst(v string, c eq.Value) error {
	n := &s.nodes[s.findID(s.id(v))]
	if n.bok {
		if n.val != c {
			return fmt.Errorf("%w: %s bound to %s, cannot bind %s", ErrClash, v, n.val, c)
		}
		return nil
	}
	n.bok, n.val = true, c
	return nil
}

// Bind records that variable v must equal constant c.
func (s *Subst) Bind(v string, c eq.Value) error { return s.bindConst(v, c) }

// UnifyTerms makes terms a and b equal under s, or returns ErrClash.
func (s *Subst) UnifyTerms(a, b eq.Term) error {
	switch {
	case a.IsVar() && b.IsVar():
		return s.union(a.Name, b.Name)
	case a.IsVar():
		return s.bindConst(a.Name, b.Const())
	case b.IsVar():
		return s.bindConst(b.Name, a.Const())
	default:
		if a.Const() != b.Const() {
			return fmt.Errorf("%w: %s vs %s", ErrClash, a.Const(), b.Const())
		}
		return nil
	}
}

// UnifyAtoms makes atoms a and b equal under s. The atoms must be over
// the same relation with the same arity; otherwise an error is returned
// without modifying semantics (callers should treat it as failure).
func (s *Subst) UnifyAtoms(a, b eq.Atom) error {
	if a.Rel != b.Rel {
		return fmt.Errorf("unify: relation mismatch %s vs %s", a.Rel, b.Rel)
	}
	if len(a.Args) != len(b.Args) {
		return fmt.Errorf("unify: arity mismatch %s vs %s", a, b)
	}
	for i := range a.Args {
		if err := s.UnifyTerms(a.Args[i], b.Args[i]); err != nil {
			return err
		}
	}
	return nil
}

// Resolve returns the canonical form of t under s: constants are
// unchanged, variables are replaced by their class constant if bound,
// otherwise by the class representative variable.
func (s *Subst) Resolve(t eq.Term) eq.Term {
	if !t.IsVar() {
		return t
	}
	r := s.findID(s.id(t.Name))
	if n := &s.nodes[r]; n.bok {
		return eq.C(n.val)
	}
	return eq.V(s.names[r])
}

// Apply returns a copy of atom a with every term resolved under s.
func (s *Subst) Apply(a eq.Atom) eq.Atom {
	out := eq.Atom{Rel: a.Rel, Args: make([]eq.Term, len(a.Args))}
	for i, t := range a.Args {
		out.Args[i] = s.Resolve(t)
	}
	return out
}

// ApplyAll maps Apply over a list of atoms.
func (s *Subst) ApplyAll(as []eq.Atom) []eq.Atom {
	out := make([]eq.Atom, len(as))
	for i, a := range as {
		out[i] = s.Apply(a)
	}
	return out
}

// Value returns the constant bound to variable v, if any.
func (s *Subst) Value(v string) (eq.Value, bool) {
	n := &s.nodes[s.findID(s.id(v))]
	return n.val, n.bok
}

// SameClass reports whether variables a and b have been unified.
func (s *Subst) SameClass(a, b string) bool {
	return s.findID(s.id(a)) == s.findID(s.id(b))
}

// Bindings returns all variable -> constant bindings induced by s,
// covering every variable s has seen whose class is bound.
func (s *Subst) Bindings() map[string]eq.Value {
	out := map[string]eq.Value{}
	for i, v := range s.names {
		if n := &s.nodes[s.findID(i)]; n.bok {
			out[v] = n.val
		}
	}
	return out
}

// Vars returns every variable name recorded in s, sorted.
func (s *Subst) Vars() []string {
	out := append([]string(nil), s.names...)
	sort.Strings(out)
	return out
}

// Unifiable reports whether two atoms unify per the paper's §2.3
// definition: they are over the same relation and do not contain
// different constants in the same position. The two atoms come from
// different queries, so their variables live in disjoint namespaces —
// only constant clashes matter, and the check allocates nothing. (An
// edge admitted here can still fail the full MGU computation later, e.g.
// R(y, y) against R(A, B); the coordination algorithms re-check with
// UnifyAtoms on alpha-renamed atoms.)
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
// every pair, the two atoms are made equal. Returns nil and an error on
// clash.
func MGU(pairs [][2]eq.Atom) (*Subst, error) {
	s := New()
	for _, p := range pairs {
		if err := s.UnifyAtoms(p[0], p[1]); err != nil {
			return nil, err
		}
	}
	return s, nil
}
