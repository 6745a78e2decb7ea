// Command coordbench regenerates the figures of the paper's
// experimental evaluation (§6) and prints one table per figure.
//
// Usage:
//
//	coordbench [-fig all|4|5|6|7|8|ablations] [-rows N] [-seeds N] [-repeats N] [-latency D] [-csv|-markdown]
//
// -rows controls the size of the queried table for Figures 4 and 5 (the
// paper uses the 82,168-row Slashdot table; that is the default). -csv
// and -markdown switch the output format. -latency adds a simulated
// round trip to every database query, the regime of the paper's
// MySQL-backed testbed.
package main

import (
	"flag"
	"fmt"
	"os"

	"entangled/internal/experiments"
	"entangled/internal/netgen"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 4, 5, 6, 7, 8 or ablations")
	rows := flag.Int("rows", netgen.SlashdotSize, "queried-table rows for figures 4-5")
	seeds := flag.Int("seeds", 10, "random graphs averaged per point (figures 5-6)")
	repeats := flag.Int("repeats", 3, "timed runs averaged per point")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	markdown := flag.Bool("markdown", false, "emit a markdown report (EXPERIMENTS.md style)")
	latency := flag.Duration("latency", 0, "simulated per-database-query latency (e.g. 1ms to model the paper's MySQL round trips)")
	flag.Parse()

	cfg := experiments.Config{TableRows: *rows, Seeds: *seeds, Repeats: *repeats, Latency: *latency}
	var series []experiments.Series
	switch *fig {
	case "all":
		series = experiments.All(cfg)
	case "4":
		series = []experiments.Series{experiments.Figure4(cfg)}
	case "5":
		series = []experiments.Series{experiments.Figure5(cfg)}
	case "6":
		series = []experiments.Series{experiments.Figure6(cfg)}
	case "7":
		series = []experiments.Series{experiments.Figure7(cfg)}
	case "8":
		series = []experiments.Series{experiments.Figure8(cfg)}
	case "ablations":
		series = experiments.AblationPruning(cfg)
	default:
		fmt.Fprintf(os.Stderr, "coordbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if *markdown {
		fmt.Print(experiments.MarkdownReport("Reproduced figures", series))
		return
	}
	for i, s := range series {
		if i > 0 {
			fmt.Println()
		}
		if *csv {
			fmt.Printf("# %s\n%s", s.Name, s.CSV())
		} else {
			fmt.Print(s.Render())
		}
	}
}
