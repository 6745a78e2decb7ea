// Command coordbench regenerates the figures of the paper's
// experimental evaluation (§6) and prints one table per figure.
//
// Usage:
//
//	coordbench [-fig all|4|5|6|7|8] [-rows N] [-seeds N] [-repeats N] [-latency D] [-csv|-markdown]
//
// -rows controls the size of the queried table for Figures 4 and 5 (the
// paper uses the 82,168-row Slashdot table; that is the default). -csv
// and -markdown switch the output format. -latency adds a simulated
// round trip to every database query, the regime of the paper's
// MySQL-backed testbed.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"

	"entangled/internal/experiments"
	"entangled/internal/netgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "coordbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("coordbench", flag.ExitOnError)
	fig := fs.String("fig", "all", "figure to regenerate: all, 4, 5, 6, 7 or 8")
	rows := fs.Int("rows", netgen.SlashdotSize, "queried-table rows for figures 4-5")
	seeds := fs.Int("seeds", 10, "random graphs averaged per point (figures 5-6)")
	repeats := fs.Int("repeats", 3, "timed runs averaged per point")
	csv := fs.Bool("csv", false, "emit CSV instead of tables")
	markdown := fs.Bool("markdown", false, "emit a markdown report (EXPERIMENTS.md style)")
	latency := fs.Duration("latency", 0, "simulated per-database-query latency (e.g. 1ms to model the paper's MySQL round trips)")
	fs.Parse(args)
	if err := cmp.Or(atLeast("rows", *rows, 1), atLeast("seeds", *seeds, 1), atLeast("repeats", *repeats, 1)); err != nil {
		return err
	}

	cfg := experiments.Config{TableRows: *rows, Seeds: *seeds, Repeats: *repeats, Latency: *latency}
	figures := map[string]func(experiments.Config) experiments.Series{
		"4": experiments.Figure4, "5": experiments.Figure5, "6": experiments.Figure6,
		"7": experiments.Figure7, "8": experiments.Figure8,
	}
	var series []experiments.Series
	switch one := figures[*fig]; {
	case *fig == "all":
		series = experiments.All(cfg)
	case one != nil:
		series = []experiments.Series{one(cfg)}
	default:
		return fmt.Errorf("unknown figure %q", *fig)
	}
	if *markdown {
		fmt.Fprint(stdout, experiments.MarkdownReport("Reproduced figures", series))
		return nil
	}
	for i, s := range series {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if *csv {
			fmt.Fprintf(stdout, "# %s\n%s", s.Name, s.CSV())
		} else {
			fmt.Fprint(stdout, s.Render())
		}
	}
	return nil
}

// atLeast refuses a count flag below the least value it can mean.
func atLeast(flag string, v, least int) error {
	if v < least {
		return fmt.Errorf("-%s must be at least %d, not %d", flag, least, v)
	}
	return nil
}
