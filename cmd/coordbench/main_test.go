package main

import (
	"strconv"
	"strings"
	"testing"
)

// The §6.1 pruning sweep at 200 rows and one seed: per query-set size,
// the database queries and the set size the seed determines, with and
// without pruning. Times are not held.
var ablationRows = map[string]string{
	"with pruning":    "10 13.0 2.0; 20 21.0 1.0; 30 30.0 0.0; 40 40.0 0.0; 50 50.0 0.0",
	"without pruning": "10 4.0 2.0; 20 3.0 1.0; 30 1.0 0.0; 40 1.0 0.0; 50 1.0 0.0",
}

// TestAblationSweep runs the sweep as tables, CSV and markdown and
// holds its seed-determined columns: queries, db queries and set size.
func TestAblationSweep(t *testing.T) {
	cells := strings.NewReplacer("|", " ", ",", " ")
	for _, format := range []string{"", "-csv", "-markdown"} {
		args := []string{"-fig", "ablations", "-rows", "200", "-seeds", "1", "-repeats", "1"}
		if format != "" {
			args = append(args, format)
		}
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		got := map[string][]string{}
		series := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if _, title, ok := strings.Cut(line, "Ablation: "); ok {
				series = title
				continue
			}
			if f := strings.Fields(cells.Replace(line)); len(f) == 4 {
				if _, err := strconv.Atoi(f[0]); err == nil {
					got[series] = append(got[series], f[0]+" "+f[2]+" "+f[3])
				}
			}
		}
		if len(got) != len(ablationRows) {
			t.Errorf("%v: %d series, want %d:\n%s", args, len(got), len(ablationRows), out.String())
		}
		for name, want := range ablationRows {
			if rows := strings.Join(got[name], "; "); rows != want {
				t.Errorf("%v: %s rows %q, want %q", args, name, rows, want)
			}
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "9"}, new(strings.Builder)); err == nil || !strings.Contains(err.Error(), `unknown figure "9"`) {
		t.Errorf("-fig 9: err %v", err)
	}
}

// TestSingleFigure runs one figure by number: Figure 7's §5 algorithm
// issues 150 database queries (3 a query) and coordinates all 50 users
// at every flight count.
func TestSingleFigure(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "7", "-repeats", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 {
			if _, err := strconv.Atoi(f[0]); err == nil {
				rows++
				if f[2] != "150.0" || f[3] != "50.0" {
					t.Errorf("row %q: want 150.0 db queries and a set of 50.0", line)
				}
			}
		}
	}
	if rows != 10 {
		t.Errorf("%d rows, want 10:\n%s", rows, out.String())
	}
}
