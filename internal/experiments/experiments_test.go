package experiments

import (
	"strings"
	"testing"
)

// small keeps the sweeps tiny so the test suite stays fast; the real
// parameters are exercised by cmd/coordbench and the root benchmarks.
func small(sizes []int) Config {
	return Config{TableRows: 200, Seeds: 2, Repeats: 1, Sizes: sizes}
}

func TestFigure4Small(t *testing.T) {
	s := Figure4(small([]int{5, 10}))
	if len(s.Points) != 2 {
		t.Fatalf("points = %v", s.Points)
	}
	for _, p := range s.Points {
		// The list workload coordinates in full and issues n database
		// queries, one per component.
		if p.SetSize != float64(p.X) {
			t.Fatalf("set size %v at n=%d", p.SetSize, p.X)
		}
		if p.DBQueries != float64(p.X) {
			t.Fatalf("db queries %v at n=%d", p.DBQueries, p.X)
		}
	}
}

func TestFigure5Small(t *testing.T) {
	s := Figure5(small([]int{5, 10}))
	for _, p := range s.Points {
		// The algorithm returns the largest R(q); in a scale-free DAG no
		// single query need reach everybody, so the set is non-empty but
		// may be smaller than n.
		if p.SetSize < 1 || p.SetSize > float64(p.X) {
			t.Fatalf("set size %v out of range at n=%d", p.SetSize, p.X)
		}
		// Fewer or equal DB queries than the list case: at most one per
		// component, and components can be larger than one query.
		if p.DBQueries > float64(p.X) {
			t.Fatalf("db queries %v at n=%d", p.DBQueries, p.X)
		}
	}
}

func TestFigure6Small(t *testing.T) {
	s := Figure6(small([]int{20, 40}))
	if len(s.Points) != 2 {
		t.Fatalf("points = %v", s.Points)
	}
	for _, p := range s.Points {
		if p.Millis < 0 {
			t.Fatal("negative time")
		}
	}
}

func TestFigure7Small(t *testing.T) {
	s := Figure7(small([]int{20, 40}))
	for _, p := range s.Points {
		if p.SetSize != 50 {
			t.Fatalf("all 50 users coordinate: %v", p.SetSize)
		}
		if p.DBQueries != 2 {
			t.Fatalf("one batch asking one option list, one asking a friend list per user: %v", p.DBQueries)
		}
	}
}

func TestFigure8Small(t *testing.T) {
	s := Figure8(small([]int{5, 10}))
	for _, p := range s.Points {
		if p.SetSize != float64(p.X) {
			t.Fatalf("all users coordinate: %v at n=%d", p.SetSize, p.X)
		}
		if p.DBQueries != 2 {
			t.Fatalf("one batch asking one option list, one asking a friend list per user: %v at n=%d", p.DBQueries, p.X)
		}
	}
}

func TestRenderAndCSV(t *testing.T) {
	s := Figure4(small([]int{5}))
	txt := s.Render()
	if !strings.Contains(txt, "Figure 4") || !strings.Contains(txt, "db queries") {
		t.Fatalf("render: %s", txt)
	}
	csv := s.CSV()
	if !strings.HasPrefix(csv, "x,millis,db_queries,set_size\n") {
		t.Fatalf("csv: %s", csv)
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 2 {
		t.Fatalf("csv rows: %s", csv)
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := All(Config{TableRows: 100, Seeds: 1, Repeats: 1, Sizes: []int{5}})
	if len(out) != 5 {
		t.Fatalf("series = %d", len(out))
	}
}

func TestMarkdownAndLinearFit(t *testing.T) {
	s := Series{Name: "Test", XLabel: "n", Points: []Point{
		{X: 10, Millis: 10}, {X: 20, Millis: 20}, {X: 30, Millis: 30},
	}}
	slope, r2 := s.LinearFit()
	if slope < 0.99 || slope > 1.01 {
		t.Fatalf("slope = %v, want 1", slope)
	}
	if r2 < 0.999 {
		t.Fatalf("perfect line should fit with r2=1, got %v", r2)
	}
	md := s.Markdown()
	for _, want := range []string{"### Test", "| n |", "| 10 | 10.000", "r² ="} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	doc := MarkdownReport("Figures", []Series{s})
	if !strings.HasPrefix(doc, "# Figures") {
		t.Fatalf("report: %s", doc)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	s := Series{Points: []Point{{X: 1, Millis: 5}}}
	if slope, r2 := s.LinearFit(); slope != 0 || r2 != 1 {
		t.Fatalf("single point: %v %v", slope, r2)
	}
	flat := Series{Points: []Point{{X: 1, Millis: 5}, {X: 2, Millis: 5}}}
	if slope, r2 := flat.LinearFit(); slope != 0 || r2 != 1 {
		t.Fatalf("flat line: %v %v", slope, r2)
	}
}

func TestFigureDBQueriesLinearFit(t *testing.T) {
	// The database-query counts of Figure 4 are exactly n — slope 1
	// through the origin, r² = 1 when fitted as a series.
	s := Figure4(small([]int{5, 10, 15}))
	q := Series{XLabel: s.XLabel}
	for _, p := range s.Points {
		q.Points = append(q.Points, Point{X: p.X, Millis: p.DBQueries})
	}
	slope, r2 := q.LinearFit()
	if slope < 0.99 || slope > 1.01 || r2 < 0.9999 {
		t.Fatalf("db queries must be exactly n: slope=%v r2=%v", slope, r2)
	}
}
