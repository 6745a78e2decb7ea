// Command hardness demonstrates the paper's §3 reductions end to end:
// it takes a 3SAT formula (from a DIMACS file or randomly generated),
// decides it with the DPLL solver, builds the Theorem 1 and Theorem 2
// entangled-query instances, solves them exactly with the brute-force
// coordinating-set solver, and reports whether the theorems' promised
// equivalences hold on this instance.
//
// Usage:
//
//	hardness -dimacs formula.cnf
//	hardness -vars 3 -clauses 5 -seed 7
//
// Keep instances small (the exact solver enumerates subsets): at most
// ~5 variables and ~4 clauses is comfortable.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"entangled/internal/coord"
	"entangled/internal/sat"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hardness: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hardness", flag.ExitOnError)
	dimacs := fs.String("dimacs", "", "DIMACS CNF file (3 literals per clause for Theorem 2)")
	vars := fs.Int("vars", 3, "variables for a random formula")
	clauses := fs.Int("clauses", 3, "clauses for a random formula")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	// A random clause draws three distinct variables.
	if err := cmp.Or(atLeast("vars", *vars, 3), atLeast("clauses", *clauses, 1)); err != nil {
		return err
	}

	var f sat.Formula
	if *dimacs != "" {
		file, err := os.Open(*dimacs)
		if err != nil {
			return err
		}
		defer file.Close()
		f, err = sat.ParseDIMACS(file)
		if err != nil {
			return err
		}
	} else {
		f = sat.Random3SAT(*vars, *clauses, rand.New(rand.NewSource(*seed)))
	}
	fmt.Fprintf(stdout, "formula: %s\n", f)

	assign, satisfiable := f.Solve()
	if satisfiable {
		fmt.Fprintf(stdout, "DPLL: satisfiable, e.g.")
		for v := 1; v <= f.NumVars; v++ {
			fmt.Fprintf(stdout, " x%d=%v", v, assign[v])
		}
		fmt.Fprintln(stdout)
	} else {
		fmt.Fprintln(stdout, "DPLL: unsatisfiable")
	}
	return reduce(f, satisfiable, stdout)
}

// reduce builds the three reductions of f, solves each exactly, and
// reports whether each promised equivalence with satisfiable — DPLL's
// verdict, the oracle — holds. It fails naming every one that does not.
func reduce(f sat.Formula, satisfiable bool, stdout io.Writer) error {
	var violated []string
	verdict := func(name string, ok bool) string {
		if ok {
			return "HOLDS"
		}
		violated = append(violated, name)
		return "VIOLATED (bug!)"
	}

	// Theorem 1: coordinating set exists iff satisfiable, over a trivial
	// database.
	in1, err := sat.ReduceTheorem1(f)
	if err != nil {
		return err
	}
	exists, err := coord.BruteForceExists(in1.Queries, in1.DB)
	if err != nil {
		return tooMany(err, len(in1.Queries))
	}
	fmt.Fprintf(stdout, "\nTheorem 1 instance: %d entangled queries over D = {0, 1}\n", len(in1.Queries))
	fmt.Fprintf(stdout, "  coordinating set exists: %v — equivalence %s\n", exists, verdict("Theorem 1", exists == satisfiable))

	// Theorem 2: maximum coordinating set = k+m iff satisfiable, with a
	// safe query set. It needs exactly 3 literals a clause; Appendix B
	// does not, so a formula Theorem 2 skips still reaches it.
	if in2, err := sat.ReduceTheorem2(f); err != nil {
		fmt.Fprintf(stdout, "\nTheorem 2 skipped: %v\n", err)
	} else {
		max, err := coord.BruteForceMax(in2.Queries, in2.DB)
		if err != nil {
			return tooMany(err, len(in2.Queries))
		}
		fmt.Fprintf(stdout, "\nTheorem 2 instance: %d safe entangled queries, target k+m = %d\n", len(in2.Queries), in2.Target)
		fmt.Fprintf(stdout, "  safe: %v, maximum coordinating set: %d — equivalence %s\n",
			coord.IsSafe(in2.Queries), max.Size(), verdict("Theorem 2", (max.Size() == in2.Target) == satisfiable))
	}

	// Appendix B: the mixed-coordination-attribute construction.
	inB, err := sat.ReduceAppendixB(f)
	if err != nil {
		return err
	}
	existsB, err := coord.BruteForceExists(inB.Queries, inB.DB)
	if err != nil {
		return tooMany(err, len(inB.Queries))
	}
	fmt.Fprintf(stdout, "\nAppendix B instance: %d unsafe entangled queries\n", len(inB.Queries))
	fmt.Fprintf(stdout, "  coordinating set exists: %v — equivalence %s\n", existsB, verdict("Appendix B", existsB == satisfiable))
	if len(violated) > 0 {
		return fmt.Errorf("equivalence violated (a reduction disagrees with DPLL): %s", strings.Join(violated, ", "))
	}
	return nil
}

// tooMany explains the exact solver's refusal of a reduction of n
// queries; any other error passes through.
func tooMany(err error, n int) error {
	if errors.Is(err, coord.ErrTooManyQueries) {
		return fmt.Errorf("[%s] %w; the reduction produced %d queries — shrink the formula (at most ~5 variables and ~4 clauses)", coord.CodeTooManyQueries, err, n)
	}
	return err
}

// atLeast refuses a count flag below the least value it can mean.
func atLeast(flag string, v, least int) error {
	if v < least {
		return fmt.Errorf("-%s must be at least %d, not %d", flag, least, v)
	}
	return nil
}
