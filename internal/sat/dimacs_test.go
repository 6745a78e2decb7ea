package sat

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseDIMACS(t *testing.T) {
	src := `c example
p cnf 3 2
1 -2 3 0
-1 2 0
`
	f, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || len(f.Clauses) != 2 {
		t.Fatalf("shape: %+v", f)
	}
	if f.Clauses[0][1] != -2 {
		t.Fatalf("clause 0: %v", f.Clauses[0])
	}
}

func TestParseDIMACSMultiline(t *testing.T) {
	src := "p cnf 3 1\n1\n-2\n3 0\n"
	f, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses) != 1 || len(f.Clauses[0]) != 3 {
		t.Fatalf("clauses: %v", f.Clauses)
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	bad := []string{
		"",                      // no problem line
		"1 2 0\n",               // clause before p
		"p cnf x y\n",           // bad counts
		"p dnf 2 1\n1 0\n",      // wrong format tag
		"p cnf 2 1\n1 3 0\n",    // literal out of range
		"p cnf 2 2\n1 0\n",      // clause count mismatch
		"p cnf 2 1\n1 2\n",      // unterminated clause
		"p cnf 2 1\n0\n",        // empty clause
		"p cnf 2 1\n1 zonk 0\n", // garbage literal
	}
	for _, src := range bad {
		if _, err := ParseDIMACS(strings.NewReader(src)); err == nil {
			t.Errorf("ParseDIMACS(%q) should fail", src)
		}
	}
}

func TestWriteDIMACSRejectsInvalid(t *testing.T) {
	var sb strings.Builder
	if err := WriteDIMACS(&sb, Formula{NumVars: 1, Clauses: []Clause{{5}}}); err == nil {
		t.Fatal("invalid formula must be rejected")
	}
}

// Property: Write then Parse is the identity on random formulas.
func TestQuickDIMACSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	f := func() bool {
		form := Random3SAT(3+rng.Intn(6), 1+rng.Intn(10), rng)
		var sb strings.Builder
		if err := WriteDIMACS(&sb, form); err != nil {
			return false
		}
		back, err := ParseDIMACS(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		if back.NumVars != form.NumVars || len(back.Clauses) != len(form.Clauses) {
			return false
		}
		for i := range form.Clauses {
			if len(back.Clauses[i]) != len(form.Clauses[i]) {
				return false
			}
			for j := range form.Clauses[i] {
				if back.Clauses[i][j] != form.Clauses[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// WriteDIMACS renders the formula in DIMACS format.
func WriteDIMACS(w io.Writer, f Formula) error {
	if err := f.Validate(); err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "p cnf %d %d\n", f.NumVars, len(f.Clauses))
	for _, c := range f.Clauses {
		for _, l := range c {
			fmt.Fprintf(&sb, "%d ", int(l))
		}
		sb.WriteString("0\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
