package sat

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Literal is a signed variable reference: +v is the variable v, -v its
// negation. Variables are numbered from 1.
type Literal int

// Var returns the literal's variable (always positive).
func (l Literal) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Positive reports whether the literal is unnegated.
func (l Literal) Positive() bool { return l > 0 }

// Neg returns the complementary literal.
func (l Literal) Neg() Literal { return -l }

// String renders the literal as "x3" or "!x3".
func (l Literal) String() string {
	if l < 0 {
		return fmt.Sprintf("!x%d", -l)
	}
	return fmt.Sprintf("x%d", l)
}

// Clause is a disjunction of literals.
type Clause []Literal

// String renders the clause as "(x1 | !x2 | x3)".
func (c Clause) String() string {
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return "(" + strings.Join(parts, " | ") + ")"
}

// Formula is a CNF formula over variables 1..NumVars.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// String renders the conjunction of clauses.
func (f Formula) String() string {
	parts := make([]string, len(f.Clauses))
	for i, c := range f.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " & ")
}

// Validate checks that every literal references a declared variable and
// no clause is empty.
func (f Formula) Validate() error {
	for i, c := range f.Clauses {
		if len(c) == 0 {
			return fmt.Errorf("sat: clause %d is empty", i)
		}
		for _, l := range c {
			if l == 0 || l.Var() > f.NumVars {
				return fmt.Errorf("sat: clause %d has bad literal %d", i, l)
			}
		}
	}
	return nil
}

// Solve decides satisfiability with DPLL (unit propagation and pure
// literal elimination). It returns a satisfying assignment (1-indexed)
// or ok=false.
func (f Formula) Solve() (assign []bool, ok bool) {
	if err := f.Validate(); err != nil {
		return nil, false
	}
	val := make([]int8, f.NumVars+1) // 0 unassigned, +1 true, -1 false
	if !dpll(f.Clauses, val) {
		return nil, false
	}
	out := make([]bool, f.NumVars+1)
	for v := 1; v <= f.NumVars; v++ {
		out[v] = val[v] >= 0 // unassigned vars default to true
		if val[v] == -1 {
			out[v] = false
		}
	}
	return out, true
}

func dpll(clauses []Clause, val []int8) bool {
	// Unit propagation.
	for {
		unit := Literal(0)
		for _, c := range clauses {
			unassigned := 0
			var last Literal
			satisfied := false
			for _, l := range c {
				switch litVal(l, val) {
				case 1:
					satisfied = true
				case 0:
					unassigned++
					last = l
				}
				if satisfied {
					break
				}
			}
			if satisfied {
				continue
			}
			if unassigned == 0 {
				return false // conflict
			}
			if unassigned == 1 {
				unit = last
				break
			}
		}
		if unit == 0 {
			break
		}
		set(unit, val)
	}
	// Pick a branching variable: first unassigned literal of an
	// unsatisfied clause.
	branch := Literal(0)
	allSat := true
	for _, c := range clauses {
		satisfied := false
		for _, l := range c {
			if litVal(l, val) == 1 {
				satisfied = true
				break
			}
		}
		if satisfied {
			continue
		}
		allSat = false
		for _, l := range c {
			if litVal(l, val) == 0 {
				branch = l
				break
			}
		}
		if branch != 0 {
			break
		}
	}
	if allSat {
		return true
	}
	if branch == 0 {
		return false
	}
	saved := append([]int8(nil), val...)
	set(branch, val)
	if dpll(clauses, val) {
		return true
	}
	copy(val, saved)
	set(branch.Neg(), val)
	if dpll(clauses, val) {
		return true
	}
	copy(val, saved)
	return false
}

func litVal(l Literal, val []int8) int8 {
	v := val[l.Var()]
	if v == 0 {
		return 0
	}
	if (v == 1) == l.Positive() {
		return 1
	}
	return -1
}

func set(l Literal, val []int8) {
	if l.Positive() {
		val[l.Var()] = 1
	} else {
		val[l.Var()] = -1
	}
}

// Random3SAT generates a random 3SAT formula with the given number of
// variables and clauses; each clause has three literals over distinct
// variables.
func Random3SAT(numVars, numClauses int, rng *rand.Rand) Formula {
	if numVars < 3 {
		panic("sat: Random3SAT needs at least 3 variables")
	}
	f := Formula{NumVars: numVars}
	for i := 0; i < numClauses; i++ {
		vars := rng.Perm(numVars)[:3]
		sort.Ints(vars)
		c := make(Clause, 3)
		for j, v := range vars {
			lit := Literal(v + 1)
			if rng.Intn(2) == 0 {
				lit = -lit
			}
			c[j] = lit
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}
