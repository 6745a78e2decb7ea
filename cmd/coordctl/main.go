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
	"os"
	"sort"
	"strings"

	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/eq"
)

type tableFlags []string

func (t *tableFlags) String() string { return strings.Join(*t, ",") }
func (t *tableFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "coordctl: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var tables tableFlags
	queries := flag.String("queries", "", "path to the entangled-query file (required)")
	flag.Var(&tables, "table", "relation=file.csv (repeatable)")
	brute := flag.Bool("brute", false, "use the exact brute-force solver (small inputs only)")
	explain := flag.Bool("explain", false, "print a step-by-step trace of the SCC algorithm")
	dot := flag.Bool("dot", false, "print the coordination graph in Graphviz DOT syntax and exit")
	flag.Parse()

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
		return coord.CoordinationGraph(qs).WriteDOT(os.Stdout, "coordination", labels)
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
		if err := trace.Render(os.Stdout, qs); err != nil {
			return err
		}
		fmt.Println()
	}
	if res == nil {
		fmt.Println("no coordinating set exists")
		return nil
	}
	fmt.Printf("coordinating set (%d of %d queries), %d database queries:\n",
		res.Size(), len(qs), res.DBQueries)
	for _, i := range res.Set {
		fmt.Printf("  %s:", qs[i].ID)
		vals := res.Values[i]
		names := make([]string, 0, len(vals))
		for v := range vals {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, v := range names {
			fmt.Printf(" %s=%s", v, vals[v])
		}
		fmt.Println()
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
