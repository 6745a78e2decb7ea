package unify

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"entangled/internal/eq"
)

func TestUnifyVarVar(t *testing.T) {
	s := New()
	if err := s.UnifyTerms(eq.V("x"), eq.V("y")); err != nil {
		t.Fatal(err)
	}
	if !s.SameClass("x", "y") {
		t.Fatal("x and y must be in the same class")
	}
}

func TestUnifyVarConst(t *testing.T) {
	s := New()
	if err := s.UnifyTerms(eq.V("x"), eq.C("Zurich")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Value("x")
	if !ok || v != "Zurich" {
		t.Fatalf("x = %v, %v", v, ok)
	}
	if got := s.Resolve(eq.V("x")); got != eq.C("Zurich") {
		t.Fatalf("Resolve(x) = %v", got)
	}
}

func TestUnifyConstClash(t *testing.T) {
	s := New()
	if err := s.UnifyTerms(eq.C("a"), eq.C("b")); !errors.Is(err, ErrClash) {
		t.Fatalf("want ErrClash, got %v", err)
	}
}

func TestBindingPropagatesThroughUnion(t *testing.T) {
	s := New()
	if err := s.UnifyTerms(eq.V("x"), eq.V("y")); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("x", "c"); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Value("y")
	if !ok || v != "c" {
		t.Fatalf("y should inherit x's binding, got %v %v", v, ok)
	}
	// Conflicting bind through the other class member fails.
	if err := s.Bind("y", "d"); !errors.Is(err, ErrClash) {
		t.Fatalf("want ErrClash, got %v", err)
	}
}

func TestUnionOfTwoBoundClassesSameConst(t *testing.T) {
	s := New()
	if err := s.Bind("x", "c"); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("y", "c"); err != nil {
		t.Fatal(err)
	}
	if err := s.UnifyTerms(eq.V("x"), eq.V("y")); err != nil {
		t.Fatalf("same-constant classes must merge: %v", err)
	}
	if err := s.Bind("z", "d"); err != nil {
		t.Fatal(err)
	}
	if err := s.UnifyTerms(eq.V("x"), eq.V("z")); !errors.Is(err, ErrClash) {
		t.Fatalf("want ErrClash merging c-class with d-class, got %v", err)
	}
}

func TestUnifyAtoms(t *testing.T) {
	s := New()
	a := eq.NewAtom("R", eq.C("G"), eq.V("x1"))
	b := eq.NewAtom("R", eq.C("G"), eq.V("y1"))
	if err := s.UnifyAtoms(a, b); err != nil {
		t.Fatal(err)
	}
	if !s.SameClass("x1", "y1") {
		t.Fatal("x1 and y1 must be unified")
	}
}

func TestUnifyAtomsMismatch(t *testing.T) {
	s := New()
	if err := s.UnifyAtoms(eq.NewAtom("R", eq.V("x")), eq.NewAtom("Q", eq.V("x"))); err == nil {
		t.Fatal("different relations must not unify")
	}
	if err := s.UnifyAtoms(eq.NewAtom("R", eq.V("x")), eq.NewAtom("R", eq.V("x"), eq.V("y"))); err == nil {
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
	s := New()
	if err := s.UnifyAtoms(eq.NewAtom("R", eq.V("x"), eq.V("y")), eq.NewAtom("R", eq.C("a"), eq.V("z"))); err != nil {
		t.Fatal(err)
	}
	got := s.Apply(eq.NewAtom("T", eq.V("x"), eq.V("y"), eq.V("w")))
	if got.Args[0] != eq.C("a") {
		t.Fatalf("x should resolve to a: %v", got)
	}
	if !got.Args[1].IsVar() {
		t.Fatalf("y stays a variable: %v", got)
	}
	// y and z resolve to the same representative.
	if s.Resolve(eq.V("y")) != s.Resolve(eq.V("z")) {
		t.Fatal("y and z must share a representative")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New()
	if err := s.Bind("x", "a"); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if err := c.Bind("y", "b"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Value("y"); ok {
		t.Fatal("binding in clone must not leak into original")
	}
	if v, ok := c.Value("x"); !ok || v != "a" {
		t.Fatal("clone must keep original bindings")
	}
}

func TestBindings(t *testing.T) {
	s := New()
	_ = s.UnifyTerms(eq.V("x"), eq.V("y"))
	_ = s.Bind("x", "c")
	_ = s.UnifyTerms(eq.V("free1"), eq.V("free2"))
	b := s.Bindings()
	if b["x"] != "c" || b["y"] != "c" {
		t.Fatalf("Bindings = %v", b)
	}
	if _, ok := b["free1"]; ok {
		t.Fatal("unbound variables must not appear in Bindings")
	}
}

func TestMGU(t *testing.T) {
	s, err := MGU([][2]eq.Atom{
		{eq.NewAtom("R", eq.V("x"), eq.C("a")), eq.NewAtom("R", eq.V("y"), eq.V("z"))},
		{eq.NewAtom("Q", eq.V("y")), eq.NewAtom("Q", eq.C("b"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Value("x"); v != "b" {
		t.Fatalf("x = %v, want b (via y)", v)
	}
	if v, _ := s.Value("z"); v != "a" {
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
		s1, s2 := New(), New()
		err1 := s1.UnifyAtoms(a, b)
		err2 := s2.UnifyAtoms(b, a)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return s1.Apply(a).Equal(s1.Apply(b)) && s2.Apply(a).Equal(s2.Apply(b))
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
		s := New()
		if err := s.UnifyAtoms(a, b); err != nil {
			return true // nothing to check
		}
		ra, rb := s.Apply(a), s.Apply(b)
		if !ra.Equal(rb) {
			return false
		}
		return s.Apply(ra).Equal(ra) && s.Apply(rb).Equal(rb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
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

// Property: Bindings and Resolve agree.
func TestQuickBindingsMatchResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		s := New()
		for i := 0; i < 10; i++ {
			a := randomAtom(rng, "R", 2)
			b := randomAtom(rng, "R", 2)
			if err := s.UnifyAtoms(a, b); err != nil {
				s = New()
			}
		}
		for v, c := range s.Bindings() {
			r := s.Resolve(eq.V(v))
			if r.IsVar() || r.Const() != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVarsSorted(t *testing.T) {
	s := New()
	_ = s.UnifyTerms(eq.V("zeta"), eq.V("alpha"))
	got := s.Vars()
	want := []string{"alpha", "zeta"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Vars = %v, want %v", got, want)
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
func (s *Subst) apply(ops []substOp) []bool {
	failed := make([]bool, len(ops))
	for i, op := range ops {
		if op.bind {
			failed[i] = s.Bind(op.v, op.c) != nil
		} else {
			failed[i] = s.UnifyAtoms(op.a, op.b) != nil
		}
	}
	return failed
}

// Property: a Reset substitution is indistinguishable from a new one.
// One Subst is reused for every trial — so each script runs after
// unrelated use, clashes included — and must fail the same steps and
// resolve every term of the shared variable pool to the same term,
// representatives included, as a fresh Subst given the same script.
func TestQuickResetIsNew(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	reused := New()
	clashes := 0
	f := func() bool {
		ops := randomOps(rng, 1+rng.Intn(8))
		fresh := New()
		reused.Reset()
		want, got := fresh.apply(ops), reused.apply(ops)
		if !reflect.DeepEqual(got, want) {
			return false
		}
		for _, failed := range want {
			if failed {
				clashes++
			}
		}
		for v := 'u'; v < 'u'+7; v++ { // the pool, and one variable no script names
			term := eq.V(string(v))
			if fresh.Resolve(term) != reused.Resolve(term) {
				return false
			}
		}
		return reflect.DeepEqual(fresh.Vars(), reused.Vars()) && reflect.DeepEqual(fresh.Bindings(), reused.Bindings())
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
	pairs := make([][2]eq.Atom, 64)
	for i := range pairs {
		x, y := eq.V("x"+string(rune('0'+i%10))+string(rune('a'+i/10))), eq.V("y"+string(rune('0'+i%10))+string(rune('a'+i/10)))
		pairs[i] = [2]eq.Atom{eq.NewAtom("R", x, y), eq.NewAtom("R", y, eq.C("k"))}
	}
	s := New()
	refill := func() {
		s.Reset()
		for _, p := range pairs {
			if err := s.UnifyAtoms(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	refill()
	if allocs := testing.AllocsPerRun(20, refill); allocs != 0 {
		t.Fatalf("reset-and-refill at steady size allocates %.0f times, want 0", allocs)
	}
	if v, ok := s.Value("x3b"); !ok || v != "k" {
		t.Fatalf("x3b = %v %v, want k", v, ok)
	}
}
