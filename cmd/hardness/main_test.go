package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"entangled/internal/coord"
	"entangled/internal/sat"
)

// TestSeedOne holds the lines -seed 1 determines: the formula, DPLL's
// verdict, and every reduction's size and verdict.
func TestSeedOne(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	want := `formula: (x1 | x2 | !x3) & (!x1 | !x2 | x3) & (!x1 | x2 | x3)
DPLL: satisfiable, e.g. x1=true x2=false x3=true

Theorem 1 instance: 10 entangled queries over D = {0, 1}
  coordinating set exists: true — equivalence HOLDS

Theorem 2 instance: 12 safe entangled queries, target k+m = 6
  safe: true, maximum coordinating set: 6 — equivalence HOLDS

Appendix B instance: 13 unsafe entangled queries
  coordinating set exists: true — equivalence HOLDS
`
	if out.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestViolationFails gives the reductions an oracle that lies: every
// equivalence then fails, and the error names all three.
func TestViolationFails(t *testing.T) {
	f := sat.Formula{NumVars: 1, Clauses: []sat.Clause{{1, 1, 1}}}
	var out strings.Builder
	err := reduce(f, false, &out)
	if err == nil {
		t.Fatalf("a reduction disagreeing with DPLL returned nil:\n%s", out.String())
	}
	for _, name := range []string{"Theorem 1", "Theorem 2", "Appendix B"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
	if n := strings.Count(out.String(), "VIOLATED"); n != 3 {
		t.Errorf("printed %d violations, want 3:\n%s", n, out.String())
	}
}

// TestTheorem2SkipStillRunsAppendixB feeds a 2-literal formula: Theorem
// 2 needs 3 literals a clause and is skipped, Appendix B is not.
func TestTheorem2SkipStillRunsAppendixB(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.cnf")
	if err := os.WriteFile(path, []byte("p cnf 2 2\n1 2 0\n-1 2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-dimacs", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"Theorem 2 skipped", "Appendix B instance", "equivalence HOLDS"} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("output lacks %q:\n%s", line, out.String())
		}
	}
}

// TestLargeFormulaIsRefused: a reduction past the exact solver's cap is
// a typed error that says to shrink the formula, not a panic.
func TestLargeFormulaIsRefused(t *testing.T) {
	err := run([]string{"-vars", "8", "-clauses", "8"}, new(strings.Builder))
	if !errors.Is(err, coord.ErrTooManyQueries) || !strings.Contains(err.Error(), "shrink the formula") {
		t.Errorf("err %v, want the too-many-queries refusal", err)
	}
}

// TestCountFlagsRefused: a count flag below what it can mean is an
// error naming the flag, before any formula is drawn.
func TestCountFlagsRefused(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-vars 2", "-vars must be at least 3, not 2"},
		{"-clauses -2", "-clauses must be at least 1, not -2"},
	} {
		if err := run(strings.Fields(tc.args), new(strings.Builder)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestMainRunsTheProgram runs main as the binary does: os.Args in, the reductions on stdout.
func TestMainRunsTheProgram(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func(args []string, out *os.File) { os.Args, os.Stdout = args, out; f.Close() }(os.Args, os.Stdout)
	os.Args, os.Stdout = []string{"hardness", "-dimacs", "testdata/small.cnf"}, f
	main()
	if out, _ := os.ReadFile(path); !strings.Contains(string(out), "DPLL: satisfiable, e.g. x1=false x2=true") {
		t.Errorf("%v printed:\n%s\nwant a line with %q", os.Args, out, "DPLL: satisfiable, e.g. x1=false x2=true")
	}
}
