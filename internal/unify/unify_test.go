package unify

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"entangled/internal/eq"
)

// named numbers written-out variables as variables of its Subst, each
// name a fresh one on first sight, so tests can write substitutions
// by name.
type named struct {
	*Subst
	ids map[string]int32
}

func newNamed() *named { return &named{Subst: New(), ids: map[string]int32{}} }

// ID returns the variable a name stands for.
func (n *named) ID(name string) int32 {
	id, ok := n.ids[name]
	if !ok {
		id = n.Fresh()
		n.ids[name] = id
	}
	return id
}

// id is ID for a term that is a variable, -1 for a constant.
func (n *named) id(t eq.Term) int32 {
	if !t.IsVar() {
		return -1
	}
	return n.ID(t.Name)
}

// UnifyAtoms makes atoms a and b equal; atoms over different relations
// or arities are an error.
func (n *named) UnifyAtoms(a, b eq.Atom) error {
	if a.Rel != b.Rel || len(a.Args) != len(b.Args) {
		return errors.New("unify: the atoms differ in relation or arity")
	}
	for i := range a.Args {
		if err := n.Unify(a.Args[i], b.Args[i], n.id(a.Args[i]), n.id(b.Args[i])); err != nil {
			return err
		}
	}
	return nil
}

// Over makes body's arguments the term table and returns the
// substitution, ready for a store to solve body under.
func (n *named) Over(body []eq.Atom) *Subst {
	var terms []int32
	for _, a := range body {
		for _, t := range a.Args {
			terms = append(terms, n.id(t))
		}
	}
	n.SetTerms(terms)
	return n.Subst
}

// term resolves a named variable under n, as a store would see it.
func term(n *named, name string) eq.Term {
	body := []eq.Atom{eq.NewAtom("T", eq.V(name))}
	return applyAll(n.Over(body), body)[0].Args[0]
}

func TestUnifyVarVar(t *testing.T) {
	n := newNamed()
	if err := n.Unify(eq.V("x"), eq.V("y"), n.ID("x"), n.ID("y")); err != nil {
		t.Fatal(err)
	}
	if rx, _, _ := n.Class(n.ID("x")); rx != n.ID("x") && rx != n.ID("y") {
		t.Fatalf("representative %d is neither variable", rx)
	}
	if term(n, "x") != term(n, "y") {
		t.Fatal("x and y must be in the same class")
	}
}

func TestUnifyVarConst(t *testing.T) {
	n := newNamed()
	if err := n.Unify(eq.V("x"), eq.C("Zurich"), n.ID("x"), -1); err != nil {
		t.Fatal(err)
	}
	if _, v, ok := n.Class(n.ID("x")); !ok || v != "Zurich" {
		t.Fatalf("x = %v, %v", v, ok)
	}
	if got := term(n, "x"); got != eq.C("Zurich") {
		t.Fatalf("x resolves to %v", got)
	}
}

func TestUnifyConstClash(t *testing.T) {
	if err := New().Unify(eq.C("a"), eq.C("b"), -1, -1); !errors.Is(err, ErrClash) {
		t.Fatalf("want ErrClash, got %v", err)
	}
}

func TestBindingPropagatesThroughUnion(t *testing.T) {
	n := newNamed()
	x, y := n.ID("x"), n.ID("y")
	if err := n.Union(x, y); err != nil {
		t.Fatal(err)
	}
	if err := n.Bind(x, "c"); err != nil {
		t.Fatal(err)
	}
	if _, v, ok := n.Class(y); !ok || v != "c" {
		t.Fatalf("y should inherit x's binding, got %v %v", v, ok)
	}
	// Conflicting bind through the other class member fails.
	if err := n.Bind(y, "d"); !errors.Is(err, ErrClash) {
		t.Fatalf("want ErrClash, got %v", err)
	}
}

func TestUnionOfTwoBoundClassesSameConst(t *testing.T) {
	s := New()
	x, y, z := s.Fresh(), s.Fresh(), s.Fresh()
	if err := s.Bind(x, "c"); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind(y, "c"); err != nil {
		t.Fatal(err)
	}
	if err := s.Union(x, y); err != nil {
		t.Fatalf("same-constant classes must merge: %v", err)
	}
	if err := s.Bind(z, "d"); err != nil {
		t.Fatal(err)
	}
	if err := s.Union(x, z); !errors.Is(err, ErrClash) {
		t.Fatalf("want ErrClash merging c-class with d-class, got %v", err)
	}
}

func TestUnifyAtoms(t *testing.T) {
	n := newNamed()
	a := eq.NewAtom("R", eq.C("G"), eq.V("x1"))
	b := eq.NewAtom("R", eq.C("G"), eq.V("y1"))
	if err := n.UnifyAtoms(a, b); err != nil {
		t.Fatal(err)
	}
	if term(n, "x1") != term(n, "y1") {
		t.Fatal("x1 and y1 must be unified")
	}
}

func TestUnifyAtomsMismatch(t *testing.T) {
	n := newNamed()
	if err := n.UnifyAtoms(eq.NewAtom("R", eq.V("x")), eq.NewAtom("Q", eq.V("x"))); err == nil {
		t.Fatal("different relations must not unify")
	}
	if err := n.UnifyAtoms(eq.NewAtom("R", eq.V("x")), eq.NewAtom("R", eq.V("x"), eq.V("y"))); err == nil {
		t.Fatal("different arities must not unify")
	}
}

func TestUnifiablePaperExamples(t *testing.T) {
	// From §2.3: R(C, x1) and R(C, y1) are unifiable whereas R(C, x1)
	// and R(G, y1) are not.
	if !Unifiable(eq.NewAtom("R", eq.C("C"), eq.V("x1")), eq.NewAtom("R", eq.C("C"), eq.V("y1"))) {
		t.Fatal("R(C, x1) ~ R(C, y1) must unify")
	}
	if Unifiable(eq.NewAtom("R", eq.C("C"), eq.V("x1")), eq.NewAtom("R", eq.C("G"), eq.V("y1"))) {
		t.Fatal("R(C, x1) ~ R(G, y1) must not unify")
	}
}

func TestApply(t *testing.T) {
	n := newNamed()
	if err := n.UnifyAtoms(eq.NewAtom("R", eq.V("x"), eq.V("y")), eq.NewAtom("R", eq.C("a"), eq.V("z"))); err != nil {
		t.Fatal(err)
	}
	body := []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.V("y"), eq.V("w"))}
	got := applyAll(n.Over(body), body)[0]
	if got.Args[0] != eq.C("a") {
		t.Fatalf("x should resolve to a: %v", got)
	}
	if !got.Args[1].IsVar() || !got.Args[2].IsVar() || got.Args[1] == got.Args[2] {
		t.Fatalf("y and w stay two variables: %v", got)
	}
	// y and z resolve to the same representative.
	if term(n, "y") != term(n, "z") {
		t.Fatal("y and z must share a representative")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New()
	x, y := s.Fresh(), s.Fresh()
	if err := s.Bind(x, "a"); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if err := c.Bind(y, "b"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Class(y); ok {
		t.Fatal("binding in clone must not leak into original")
	}
	if _, v, ok := c.Class(x); !ok || v != "a" {
		t.Fatal("clone must keep original bindings")
	}
}

// The bindings s induces, read class by class: every variable of a
// bound class has its constant, and a variable of an unbound class has
// none.
func TestBindings(t *testing.T) {
	n := newNamed()
	_ = n.Union(n.ID("x"), n.ID("y"))
	_ = n.Bind(n.ID("x"), "c")
	_ = n.Union(n.ID("free1"), n.ID("free2"))
	for _, v := range []string{"x", "y"} {
		if _, c, ok := n.Class(n.ID(v)); !ok || c != "c" {
			t.Fatalf("%s = %v %v, want c", v, c, ok)
		}
	}
	if _, _, ok := n.Class(n.ID("free1")); ok {
		t.Fatal("an unbound class must have no constant")
	}
}

func TestMGU(t *testing.T) {
	// MGU numbers the variables by first sight: x 0, y 1, z 2.
	s, err := MGU([][2]eq.Atom{
		{eq.NewAtom("R", eq.V("x"), eq.C("a")), eq.NewAtom("R", eq.V("y"), eq.V("z"))},
		{eq.NewAtom("Q", eq.V("y")), eq.NewAtom("Q", eq.C("b"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, v, _ := s.Class(0); v != "b" {
		t.Fatalf("x = %v, want b (via y)", v)
	}
	if _, v, _ := s.Class(2); v != "a" {
		t.Fatalf("z = %v, want a", v)
	}
	if _, err := MGU([][2]eq.Atom{
		{eq.NewAtom("R", eq.C("a")), eq.NewAtom("R", eq.C("b"))},
	}); err == nil {
		t.Fatal("clash must surface")
	}
}

// randomAtom builds an atom over a small pool of variables and constants
// so collisions are common.
func randomAtom(rng *rand.Rand, rel string, arity int) eq.Atom {
	args := make([]eq.Term, arity)
	for i := range args {
		if rng.Intn(2) == 0 {
			args[i] = eq.V(string(rune('u' + rng.Intn(6))))
		} else {
			args[i] = eq.C(eq.Value(string(rune('A' + rng.Intn(3)))))
		}
	}
	return eq.Atom{Rel: rel, Args: args}
}

// Property: unification is symmetric — unify(a,b) succeeds iff
// unify(b,a) succeeds, and the resolved atoms agree.
func TestQuickUnifySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a := randomAtom(rng, "R", 3)
		b := randomAtom(rng, "R", 3)
		s1, s2 := newNamed(), newNamed()
		err1 := s1.UnifyAtoms(a, b)
		err2 := s2.UnifyAtoms(b, a)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		r1, r2 := apply(s1, a, b), apply(s2, a, b)
		return r1[0].Equal(r1[1]) && r2[0].Equal(r2[1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: after a successful unification, applying the substitution
// makes the two atoms syntactically equal (the defining property of a
// unifier), and applying it twice changes nothing (idempotence).
func TestQuickUnifierIsFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		a := randomAtom(rng, "R", 4)
		b := randomAtom(rng, "R", 4)
		n := newNamed()
		if err := n.UnifyAtoms(a, b); err != nil {
			return true // nothing to check
		}
		r := apply(n, a, b)
		if !r[0].Equal(r[1]) {
			return false
		}
		// The resolved atoms name classes, not variables: resolving
		// them again, each class a variable of its own, changes them
		// only up to the names of those variables.
		return canon(apply(newNamed(), r...)) == canon(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// canon renders atoms with their variables numbered by first
// appearance, so two lists are equal up to a one-to-one renaming of
// variables exactly when their canon forms are equal.
func canon(as []eq.Atom) string {
	names := map[string]string{}
	s := ""
	for _, a := range as {
		s += a.Rel + "("
		for _, t := range a.Args {
			if t.IsVar() {
				if _, ok := names[t.Name]; !ok {
					names[t.Name] = "?" + strconv.Itoa(len(names))
				}
				s += names[t.Name] + ","
			} else {
				s += strconv.Quote(t.Name) + ","
			}
		}
		s += ")"
	}
	return s
}

// Property: Unifiable follows the paper's positional definition — it
// holds exactly when no position carries two distinct constants — and is
// complete for groundability: whenever independent groundings of the two
// atoms (variables in disjoint namespaces) can make them equal, the
// atoms are Unifiable. The converse fails by design for repeated
// variables (R(y, y) vs R(A, B)), which the MGU re-check catches later.
func TestQuickUnifiablePositional(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	domain := []eq.Value{"A", "B", "C"}
	f := func() bool {
		a := randomAtom(rng, "R", 2) // arity 2 keeps brute force cheap
		b := randomAtom(rng, "R", 2)
		ok := Unifiable(a, b)
		// Positional definition, computed independently.
		positional := true
		for i := range a.Args {
			if !a.Args[i].IsVar() && !b.Args[i].IsVar() && a.Args[i].Name != b.Args[i].Name {
				positional = false
			}
		}
		if ok != positional {
			return false
		}
		// Completeness: ground a and b independently (disjoint variable
		// namespaces) and look for a common instance.
		bRenamed := b.Clone()
		for i, tm := range bRenamed.Args {
			if tm.IsVar() {
				bRenamed.Args[i] = eq.V("rhs." + tm.Name)
			}
		}
		vars := map[string]bool{}
		for _, at := range []eq.Atom{a, bRenamed} {
			for _, tm := range at.Args {
				if tm.IsVar() {
					vars[tm.Name] = true
				}
			}
		}
		var names []string
		for v := range vars {
			names = append(names, v)
		}
		found := false
		var rec func(i int, m map[string]eq.Value)
		rec = func(i int, m map[string]eq.Value) {
			if found {
				return
			}
			if i == len(names) {
				if groundWith(a, m).Equal(groundWith(bRenamed, m)) {
					found = true
				}
				return
			}
			for _, d := range domain {
				m[names[i]] = d
				rec(i+1, m)
			}
		}
		rec(0, map[string]eq.Value{})
		if found && !ok {
			return false // groundable but rejected: incompleteness
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func groundWith(a eq.Atom, m map[string]eq.Value) eq.Atom {
	out := a.Clone()
	for i, t := range out.Args {
		if t.IsVar() {
			out.Args[i] = eq.C(m[t.Name])
		}
	}
	return out
}

// Property: Class and resolution by the term table agree: a variable of a bound class
// resolves to the class's constant, any other to its class's variable.
func TestQuickBindingsMatchResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		n := newNamed()
		for i := 0; i < 10; i++ {
			a := randomAtom(rng, "R", 2)
			b := randomAtom(rng, "R", 2)
			if err := n.UnifyAtoms(a, b); err != nil {
				n = newNamed()
			}
		}
		for v := 'u'; v < 'u'+6; v++ {
			rep, c, bound := n.Class(n.ID(string(v)))
			got := term(n, string(v))
			if bound != !got.IsVar() || bound && got.Const() != c || !bound && got.Name != "_"+strconv.Itoa(int(rep)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// substOp is one step of a random unification script: unify two atoms
// or bind a variable to a constant.
type substOp struct {
	a, b eq.Atom
	v    string
	c    eq.Value
	bind bool
}

func randomOps(rng *rand.Rand, n int) []substOp {
	ops := make([]substOp, n)
	for i := range ops {
		if rng.Intn(4) == 0 {
			ops[i] = substOp{bind: true, v: string(rune('u' + rng.Intn(6))), c: eq.Value(string(rune('A' + rng.Intn(3))))}
		} else {
			ops[i] = substOp{a: randomAtom(rng, "R", 3), b: randomAtom(rng, "R", 3)}
		}
	}
	return ops
}

// apply runs the script on s — past clashes, which leave s part-way
// through an atom — and returns which steps failed.
func (n *named) apply(ops []substOp) []bool {
	failed := make([]bool, len(ops))
	for i, op := range ops {
		if op.bind {
			failed[i] = n.Bind(n.ID(op.v), op.c) != nil
		} else {
			failed[i] = n.UnifyAtoms(op.a, op.b) != nil
		}
	}
	return failed
}

// apply resolves atoms under n, as one body.
func apply(n *named, atoms ...eq.Atom) []eq.Atom { return applyAll(n.Over(atoms), atoms) }

// applyAll returns body with every term resolved through the term
// table: a constant stays, a variable becomes its class's constant when
// bound and otherwise a variable named for its class, "_<rep>".
func applyAll(s *Subst, body []eq.Atom) []eq.Atom {
	out := make([]eq.Atom, len(body))
	k := 0
	for i, a := range body {
		out[i] = eq.Atom{Rel: a.Rel, Args: slices.Clone(a.Args)}
		for j, t := range a.Args {
			if t.IsVar() {
				if rep, c, bound := s.Term(k); bound {
					out[i].Args[j] = eq.C(c)
				} else {
					out[i].Args[j] = eq.V("_" + strconv.Itoa(int(rep)))
				}
			}
			k++
		}
	}
	return out
}

// Property: a Reset substitution is indistinguishable from a new one.
// One Subst is reused for every trial — so each script runs after
// unrelated use, clashes included — and must fail the same steps and
// resolve every term of the shared variable pool to the same term,
// representatives included, as a fresh Subst given the same script.
// The pool is numbered up front, as the coordination algorithms number
// a query's variables before unifying.
func TestQuickResetIsNew(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	reused := New()
	clashes := 0
	f := func() bool {
		ops := randomOps(rng, 1+rng.Intn(8))
		fresh := newNamed()
		reused.Reset(0)
		again := &named{Subst: reused, ids: map[string]int32{}}
		for v := 'u'; v < 'u'+7; v++ { // the pool, and one variable no script names
			fresh.ID(string(v))
			again.ID(string(v))
		}
		want, got := fresh.apply(ops), again.apply(ops)
		if !reflect.DeepEqual(got, want) {
			return false
		}
		for _, failed := range want {
			if failed {
				clashes++
			}
		}
		for v := 'u'; v < 'u'+7; v++ {
			if term(fresh, string(v)) != term(again, string(v)) {
				return false
			}
		}
		return fresh.Len() == again.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if clashes == 0 {
		t.Fatal("no script clashed: the property never reused a Subst after a clash")
	}
}

// A Subst that has seen its largest computation refills without
// allocating: the forest is storage, not garbage.
func TestResetRefillDoesNotAllocate(t *testing.T) {
	const pairs = 64
	s := New()
	refill := func() {
		s.Reset(2 * pairs)
		for i := int32(0); i < pairs; i++ {
			x, y := eq.V("x"), eq.V("y")
			// R(x_i, y_i) against R(y_i, k).
			if s.Unify(x, y, i, pairs+i) != nil || s.Unify(y, eq.C("k"), pairs+i, -1) != nil {
				t.Fatal("no clash expected")
			}
		}
	}
	refill()
	if allocs := testing.AllocsPerRun(20, refill); allocs != 0 {
		t.Fatalf("reset-and-refill at steady size allocates %.0f times, want 0", allocs)
	}
	if _, v, ok := s.Class(13); !ok || v != "k" {
		t.Fatalf("x13 = %v %v, want k", v, ok)
	}
}

// Forget leaves a Subst that pins no constant, even one bound in an
// earlier, larger computation beyond its current length, and that
// still refills without allocating.
func TestForgetDropsEveryConstant(t *testing.T) {
	s := New()
	s.Reset(16)
	for i := int32(0); i < 16; i++ {
		if err := s.Bind(i, eq.Value("k"+strconv.Itoa(int(i)))); err != nil {
			t.Fatal(err)
		}
	}
	s.Reset(4) // nodes 4..15 keep their constants in the storage
	s.Forget()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after Forget, want 0", s.Len())
	}
	for i, nd := range s.nodes[:cap(s.nodes)] {
		if nd.val != "" || nd.bok {
			t.Fatalf("node %d keeps %q after Forget", i, nd.val)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { s.Reset(16); s.Forget() }); allocs != 0 {
		t.Fatalf("refilling after Forget allocates %.0f times, want 0", allocs)
	}
}
