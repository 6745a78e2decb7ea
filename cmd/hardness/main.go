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
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"entangled/internal/coord"
	"entangled/internal/sat"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "hardness: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	dimacs := flag.String("dimacs", "", "DIMACS CNF file (3 literals per clause for Theorem 2)")
	vars := flag.Int("vars", 3, "variables for a random formula")
	clauses := flag.Int("clauses", 3, "clauses for a random formula")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

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
	fmt.Printf("formula: %s\n", f)

	assign, satisfiable := f.Solve()
	if satisfiable {
		fmt.Printf("DPLL: satisfiable, e.g.")
		for v := 1; v <= f.NumVars; v++ {
			fmt.Printf(" x%d=%v", v, assign[v])
		}
		fmt.Println()
	} else {
		fmt.Println("DPLL: unsatisfiable")
	}

	// Theorem 1: coordinating set exists iff satisfiable, over a trivial
	// database.
	in1, err := sat.ReduceTheorem1(f)
	if err != nil {
		return err
	}
	exists, err := coord.BruteForceExists(in1.Queries, in1.DB)
	if errors.Is(err, coord.ErrTooManyQueries) {
		return fmt.Errorf("[%s] %w; the reduction produced %d queries — shrink the formula (at most ~5 variables and ~4 clauses)", coord.CodeTooManyQueries, err, len(in1.Queries))
	}
	if err != nil {
		return err
	}
	fmt.Printf("\nTheorem 1 instance: %d entangled queries over D = {0, 1}\n", len(in1.Queries))
	fmt.Printf("  coordinating set exists: %v — equivalence %s\n", exists, verdict(exists == satisfiable))

	// Theorem 2: maximum coordinating set = k+m iff satisfiable, with a
	// safe query set.
	in2, err := sat.ReduceTheorem2(f)
	if err != nil {
		fmt.Printf("\nTheorem 2 skipped: %v\n", err)
		return nil
	}
	max, err := coord.BruteForceMax(in2.Queries, in2.DB)
	if errors.Is(err, coord.ErrTooManyQueries) {
		return fmt.Errorf("[%s] %w; the reduction produced %d queries — shrink the formula", coord.CodeTooManyQueries, err, len(in2.Queries))
	}
	if err != nil {
		return err
	}
	fmt.Printf("\nTheorem 2 instance: %d safe entangled queries, target k+m = %d\n", len(in2.Queries), in2.Target)
	fmt.Printf("  safe: %v, maximum coordinating set: %d — equivalence %s\n",
		coord.IsSafe(in2.Queries), max.Size(), verdict((max.Size() == in2.Target) == satisfiable))

	// Appendix B: the mixed-coordination-attribute construction.
	inB, err := sat.ReduceAppendixB(f)
	if err != nil {
		return err
	}
	existsB, err := coord.BruteForceExists(inB.Queries, inB.DB)
	if errors.Is(err, coord.ErrTooManyQueries) {
		return fmt.Errorf("[%s] %w; the reduction produced %d queries — shrink the formula", coord.CodeTooManyQueries, err, len(inB.Queries))
	}
	if err != nil {
		return err
	}
	fmt.Printf("\nAppendix B instance: %d unsafe entangled queries\n", len(inB.Queries))
	fmt.Printf("  coordinating set exists: %v — equivalence %s\n", existsB, verdict(existsB == satisfiable))
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "HOLDS"
	}
	return "VIOLATED (bug!)"
}
