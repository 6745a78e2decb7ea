package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestFigureSweep runs Figure 4's sweep at 200 rows as tables, CSV and
// markdown and holds its seed-determined columns: a list of n queries
// is n components, each searched with one database query, and
// coordinates in full. Times are not held.
func TestFigureSweep(t *testing.T) {
	var want []string
	for n := 10; n <= 100; n += 10 {
		want = append(want, fmt.Sprintf("%d %d.0 %d.0", n, n, n))
	}
	cells := strings.NewReplacer("|", " ", ",", " ")
	for _, format := range []string{"", "-csv", "-markdown"} {
		args := []string{"-fig", "4", "-rows", "200", "-seeds", "1", "-repeats", "1"}
		if format != "" {
			args = append(args, format)
		}
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		var got []string
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(cells.Replace(line)); len(f) == 4 {
				if _, err := strconv.Atoi(f[0]); err == nil {
					got = append(got, f[0]+" "+f[2]+" "+f[3])
				}
			}
		}
		if !strings.Contains(out.String(), "Figure 4: ") || !slices.Equal(got, want) {
			t.Errorf("%v: rows %q, want %q:\n%s", args, got, want, out.String())
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "9"}, new(strings.Builder)); err == nil || !strings.Contains(err.Error(), `unknown figure "9"`) {
		t.Errorf("-fig 9: err %v", err)
	}
}

// TestSingleFigure runs one figure by number: Figure 7's §5 algorithm
// issues 2 database queries (one batch asking one option list for the
// 50 alike wildcard queries, one asking a friend list each) and
// coordinates all 50 users at every flight count.
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
				if f[2] != "2.0" || f[3] != "50.0" {
					t.Errorf("row %q: want 2.0 db queries and a set of 50.0", line)
				}
			}
		}
	}
	if rows != 10 {
		t.Errorf("%d rows, want 10:\n%s", rows, out.String())
	}
}

// TestCountFlagsRefused: a count flag below what it can mean is an
// error naming the flag, before any figure runs.
func TestCountFlagsRefused(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-fig 4 -rows -5", "-rows must be at least 1, not -5"},
		{"-fig 5 -seeds 0", "-seeds must be at least 1, not 0"},
		{"-fig 7 -repeats -1", "-repeats must be at least 1, not -1"},
	} {
		if err := run(strings.Fields(tc.args), new(strings.Builder)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestMainRunsTheProgram runs main as the binary does: os.Args in, the figure on stdout.
func TestMainRunsTheProgram(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func(args []string, out *os.File) { os.Args, os.Stdout = args, out; f.Close() }(os.Args, os.Stdout)
	os.Args, os.Stdout = []string{"coordbench", "-fig", "7", "-repeats", "1"}, f
	main()
	if out, _ := os.ReadFile(path); !strings.Contains(string(out), "Figure 7: ") {
		t.Errorf("%v printed:\n%s\nwant a line with %q", os.Args, out, "Figure 7: ")
	}
}
