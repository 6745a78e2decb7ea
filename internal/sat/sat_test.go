package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLiteral(t *testing.T) {
	l := Literal(3)
	if l.Var() != 3 || !l.Positive() || l.Neg() != -3 {
		t.Fatalf("literal mechanics broken: %v", l)
	}
	n := Literal(-5)
	if n.Var() != 5 || n.Positive() || n.Neg() != 5 {
		t.Fatalf("negative literal mechanics broken: %v", n)
	}
	if l.String() != "x3" || n.String() != "!x5" {
		t.Fatalf("rendering: %s %s", l, n)
	}
}

func TestFormulaValidate(t *testing.T) {
	f := Formula{NumVars: 2, Clauses: []Clause{{1, -2}}}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Formula{NumVars: 1, Clauses: []Clause{{2}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range variable must fail")
	}
	empty := Formula{NumVars: 1, Clauses: []Clause{{}}}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty clause must fail")
	}
	zero := Formula{NumVars: 1, Clauses: []Clause{{0}}}
	if err := zero.Validate(); err == nil {
		t.Fatal("zero literal must fail")
	}
}

func TestSolveTrivial(t *testing.T) {
	f := Formula{NumVars: 1, Clauses: []Clause{{1}}}
	assign, ok := f.Solve()
	if !ok || !assign[1] {
		t.Fatalf("x1 alone: assign=%v ok=%v", assign, ok)
	}
	g := Formula{NumVars: 1, Clauses: []Clause{{1}, {-1}}}
	if _, ok := g.Solve(); ok {
		t.Fatal("x1 & !x1 is unsatisfiable")
	}
}

func TestSolveKnownUnsat(t *testing.T) {
	// All eight sign patterns over three variables: unsatisfiable.
	var clauses []Clause
	for s := 0; s < 8; s++ {
		c := Clause{}
		for v := 1; v <= 3; v++ {
			l := Literal(v)
			if s&(1<<(v-1)) != 0 {
				l = -l
			}
			c = append(c, l)
		}
		clauses = append(clauses, c)
	}
	f := Formula{NumVars: 3, Clauses: clauses}
	if _, ok := f.Solve(); ok {
		t.Fatal("complete sign-pattern formula is unsatisfiable")
	}
}

func TestSolveKnownSat(t *testing.T) {
	f := Formula{NumVars: 4, Clauses: []Clause{
		{1, 2, 3}, {-1, -2, 4}, {-3, -4, 1}, {2, -3, -4},
	}}
	assign, ok := f.Solve()
	if !ok {
		t.Fatal("formula is satisfiable")
	}
	if !f.Eval(assign) {
		t.Fatalf("returned assignment %v does not satisfy %s", assign, f)
	}
}

// bruteSat enumerates all assignments; the oracle for the DPLL property
// test.
func bruteSat(f Formula) bool {
	n := f.NumVars
	for m := 0; m < 1<<n; m++ {
		assign := make([]bool, n+1)
		for v := 1; v <= n; v++ {
			assign[v] = m&(1<<(v-1)) != 0
		}
		if f.Eval(assign) {
			return true
		}
	}
	return false
}

// Property: DPLL agrees with exhaustive enumeration, and returned
// assignments always satisfy the formula.
func TestQuickDPLLMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func() bool {
		nv := 3 + rng.Intn(5)
		nc := 1 + rng.Intn(3*nv)
		form := Random3SAT(nv, nc, rng)
		assign, ok := form.Solve()
		if ok != bruteSat(form) {
			return false
		}
		if ok && !form.Eval(assign) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRandom3SATShape(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := Random3SAT(6, 10, rng)
	if f.NumVars != 6 || len(f.Clauses) != 10 {
		t.Fatalf("shape: %d vars %d clauses", f.NumVars, len(f.Clauses))
	}
	for _, c := range f.Clauses {
		if len(c) != 3 {
			t.Fatalf("clause size %d", len(c))
		}
		seen := map[int]bool{}
		for _, l := range c {
			if seen[l.Var()] {
				t.Fatalf("repeated variable in clause %v", c)
			}
			seen[l.Var()] = true
		}
	}
}

func TestFormulaString(t *testing.T) {
	f := Formula{NumVars: 2, Clauses: []Clause{{1, -2}}}
	if f.String() != "(x1 | !x2)" {
		t.Fatalf("String = %q", f.String())
	}
}

// Eval evaluates the formula under a complete assignment (1-indexed;
// index 0 unused).
func (f Formula) Eval(assign []bool) bool {
	for _, c := range f.Clauses {
		sat := false
		for _, l := range c {
			if assign[l.Var()] == l.Positive() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}
