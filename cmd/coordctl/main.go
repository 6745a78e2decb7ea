// Command coordctl evaluates a set of entangled queries from a text
// file against a database loaded from CSV files, using the SCC
// Coordination Algorithm (or the Consistent Coordination Algorithm's
// generic translation via the brute-force solver when -brute is given).
//
// Usage:
//
//	coordctl -queries queries.eq -table Flights=flights.csv [-table Hotels=hotels.csv ...] [-brute]
//
// The query file uses the format of internal/eq:
//
//	query gwyneth {
//	  post: R(Chris, x)
//	  head: R(Gwyneth, x)
//	  body: Flights(x, Zurich)
//	}
//
// A query file ending in .json is decoded with the JSON codec of
// internal/eq instead ("?x" variables, "=v" constants).
//
// Each -table flag names a relation and a headerless CSV file; the
// relation's arity is taken from the first row, and an index is built on
// every column. On success coordctl prints the coordinating set and
// each query's variable assignment.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/eq"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "coordctl: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	var tables []string
	fs := flag.NewFlagSet("coordctl", flag.ExitOnError)
	queries := fs.String("queries", "", "path to the entangled-query file (required)")
	fs.Func("table", "relation=file.csv (repeatable)", func(spec string) error {
		tables = append(tables, spec)
		return nil
	})
	brute := fs.Bool("brute", false, "use the exact brute-force solver (small inputs only)")
	explain := fs.Bool("explain", false, "print a step-by-step trace of the SCC algorithm")
	dot := fs.Bool("dot", false, "print the coordination graph in Graphviz DOT syntax and exit")
	fs.Parse(args)

	if *queries == "" {
		return fmt.Errorf("-queries is required")
	}
	src, err := os.ReadFile(*queries)
	if err != nil {
		return err
	}
	var qs []eq.Query
	if strings.HasSuffix(*queries, ".json") {
		qs, err = eq.DecodeSet(src)
	} else {
		qs, err = eq.ParseSet(string(src))
	}
	if err != nil {
		return err
	}

	inst := db.NewInstance()
	for _, spec := range tables {
		name, file, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -table %q, want relation=file.csv", spec)
		}
		if err := loadCSV(inst, name, file); err != nil {
			return err
		}
	}
	if err := eq.Validate(qs, inst.Schema()); err != nil {
		return err
	}

	if *dot {
		labels := make([]string, len(qs))
		for i, q := range qs {
			labels[i] = q.ID
		}
		return coord.CoordinationGraph(qs).WriteDOT(stdout, "coordination", labels)
	}

	var res *coord.Result
	var trace *coord.Trace
	if *brute {
		res, err = coord.BruteForceMax(qs, inst)
		if errors.Is(err, coord.ErrTooManyQueries) {
			return fmt.Errorf("[%s] %w; drop -brute to use the polynomial SCC algorithm (the query set must be safe)", coord.CodeTooManyQueries, err)
		}
	} else {
		if *explain {
			trace = &coord.Trace{}
		}
		res, err = coord.SCCCoordinate(qs, inst, coord.Options{Trace: trace})
	}
	if err != nil {
		return err
	}
	if trace != nil {
		if err := trace.Render(stdout, qs); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if res == nil {
		fmt.Fprintln(stdout, "no coordinating set exists")
		return nil
	}
	fmt.Fprintf(stdout, "coordinating set (%d of %d queries), %d database queries:\n",
		res.Size(), len(qs), res.DBQueries)
	for _, i := range res.Set {
		fmt.Fprintf(stdout, "  %s:", qs[i].ID)
		vals := res.Values[i]
		names := make([]string, 0, len(vals))
		for v := range vals {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, v := range names {
			fmt.Fprintf(stdout, " %s=%s", v, vals[v])
		}
		fmt.Fprintln(stdout)
	}
	if err := coord.Verify(qs, res.Set, res.Values, inst); err != nil {
		return fmt.Errorf("internal error: result failed verification: %v", err)
	}
	return nil
}

func loadCSV(inst *db.Instance, name, file string) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = inst.LoadCSV(name, f)
	return err
}
