package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"entangled/internal/consistent"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/netgen"
	"entangled/internal/workload"
)

// Point is one x-axis position of a figure.
type Point struct {
	X         int     // figure-specific: #queries, table size, ...
	Millis    float64 // mean wall-clock processing time per run
	DBQueries float64 // mean number of database queries issued
	SetSize   float64 // mean size of the returned coordinating set
}

// Series is a reproduced figure.
type Series struct {
	Name   string
	XLabel string
	Points []Point
}

// Config tunes the sweeps; zero values select the paper's parameters.
type Config struct {
	// TableRows is the size of the queried table for Figures 4-6. The
	// paper uses the 82,168-row Slashdot table; tests use smaller ones.
	TableRows int
	// Seeds is the number of random graphs averaged per point in
	// Figures 5 and 6 (the paper uses 10).
	Seeds int
	// Repeats is the number of timed runs averaged per point.
	Repeats int
	// Sizes overrides the per-figure x-axis values.
	Sizes []int
	// Latency is an optional per-database-query delay simulating the
	// networked-SQL-server round trips of the paper's testbed (see
	// db.Instance.SimulatedLatency). Zero measures pure compute.
	Latency time.Duration
}

func (c Config) withDefaults(sizes []int) Config {
	if c.TableRows == 0 {
		c.TableRows = netgen.SlashdotSize
	}
	if c.Seeds == 0 {
		c.Seeds = 10
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	if len(c.Sizes) == 0 {
		c.Sizes = sizes
	}
	return c
}

func seq(from, to, step int) []int {
	var out []int
	for x := from; x <= to; x += step {
		out = append(out, x)
	}
	return out
}

// Figure4 — SCC Coordination Algorithm processing time on the list
// structure: each of n queries coordinates with the next; the paper
// sweeps n up to 100 over the 82k-row Slashdot table.
func Figure4(cfg Config) Series {
	cfg = cfg.withDefaults(seq(10, 100, 10))
	s := Series{Name: "Figure 4: SCC algorithm, list structure", XLabel: "queries"}
	inst := db.NewInstance()
	inst.SimulatedLatency = cfg.Latency
	workload.UserTable(inst, cfg.TableRows)
	for _, n := range cfg.Sizes {
		qs := workload.ListQueries(n, cfg.TableRows)
		p := timeSCC(inst, qs, cfg.Repeats)
		p.X = n
		s.Points = append(s.Points, p)
	}
	return s
}

// Figure5 — SCC Coordination Algorithm processing time on scale-free
// coordination structures, averaged over cfg.Seeds random
// Barabási–Albert graphs per size.
func Figure5(cfg Config) Series {
	cfg = cfg.withDefaults(seq(10, 100, 10))
	s := Series{Name: "Figure 5: SCC algorithm, scale-free structure", XLabel: "queries"}
	inst := db.NewInstance()
	inst.SimulatedLatency = cfg.Latency
	workload.UserTable(inst, cfg.TableRows)
	for _, n := range cfg.Sizes {
		var acc Point
		for seed := 0; seed < cfg.Seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(1000*n + seed)))
			qs := workload.ScaleFreeQueries(n, 2, cfg.TableRows, rng)
			p := timeSCC(inst, qs, cfg.Repeats)
			acc.Millis += p.Millis
			acc.DBQueries += p.DBQueries
			acc.SetSize += p.SetSize
		}
		k := float64(cfg.Seeds)
		s.Points = append(s.Points, Point{X: n, Millis: acc.Millis / k, DBQueries: acc.DBQueries / k, SetSize: acc.SetSize / k})
	}
	return s
}

// Figure6 — graph construction and preprocessing time only, on
// scale-free structures of 100 to 1000 queries (no database work).
func Figure6(cfg Config) Series {
	cfg = cfg.withDefaults(seq(100, 1000, 100))
	s := Series{Name: "Figure 6: graph processing time, scale-free structure", XLabel: "queries"}
	for _, n := range cfg.Sizes {
		var total float64
		for seed := 0; seed < cfg.Seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(1000*n + seed)))
			qs := workload.ScaleFreeQueries(n, 2, 100, rng)
			start := time.Now()
			for r := 0; r < cfg.Repeats; r++ {
				_ = coord.Preprocess(qs)
			}
			total += float64(time.Since(start).Microseconds()) / 1000.0 / float64(cfg.Repeats)
		}
		s.Points = append(s.Points, Point{X: n, Millis: total / float64(cfg.Seeds)})
	}
	return s
}

// Figure7 — Consistent Coordination Algorithm processing time as a
// function of the number of possible coordination-attribute values: 50
// all-wildcard queries over a complete friendship graph against Flights
// tables of 100 to 1000 unique flights.
func Figure7(cfg Config) Series {
	cfg = cfg.withDefaults(seq(100, 1000, 100))
	const users = 50
	s := Series{Name: "Figure 7: consistent algorithm vs possible values", XLabel: "flights (= values)"}
	for _, rows := range cfg.Sizes {
		inst := db.NewInstance()
		inst.SimulatedLatency = cfg.Latency
		workload.FlightsTable(inst, rows, rows)
		workload.CompleteFriends(inst, users)
		qs := workload.FlightQueries(users)
		p := timeConsistent(inst, qs, cfg.Repeats)
		p.X = rows
		s.Points = append(s.Points, p)
	}
	return s
}

// Figure8 — Consistent Coordination Algorithm processing time as a
// function of the number of queries: a 100-row Flights table with 100
// distinct (dest, day) pairs, sweeping 10 to 100 users.
func Figure8(cfg Config) Series {
	cfg = cfg.withDefaults(seq(10, 100, 10))
	s := Series{Name: "Figure 8: consistent algorithm vs queries", XLabel: "queries"}
	for _, users := range cfg.Sizes {
		inst := db.NewInstance()
		inst.SimulatedLatency = cfg.Latency
		workload.FlightsTable(inst, 100, 100)
		workload.CompleteFriends(inst, users)
		qs := workload.FlightQueries(users)
		p := timeConsistent(inst, qs, cfg.Repeats)
		p.X = users
		s.Points = append(s.Points, p)
	}
	return s
}

// All runs every figure.
func All(cfg Config) []Series {
	return []Series{Figure4(cfg), Figure5(cfg), Figure6(cfg), Figure7(cfg), Figure8(cfg)}
}

// timeSCC times the paper's walk, which grounds every component
// bottom-up: AllCandidates. Its first set is the one SCCCoordinate
// serves.
func timeSCC(inst *db.Instance, qs []eq.Query, repeats int) Point {
	var p Point
	for r := 0; r < repeats; r++ {
		inst.ResetCounters()
		start := time.Now()
		cands, err := coord.AllCandidates(qs, inst, coord.Options{})
		elapsed := time.Since(start)
		if err != nil {
			panic(err) // generated workloads are always safe
		}
		p.Millis += float64(elapsed.Microseconds()) / 1000.0
		p.DBQueries += float64(inst.QueriesIssued())
		if len(cands) > 0 {
			p.SetSize += float64(len(cands[0].Set))
		}
	}
	k := float64(repeats)
	p.Millis /= k
	p.DBQueries /= k
	p.SetSize /= k
	return p
}

func timeConsistent(inst *db.Instance, qs []consistent.Query, repeats int) Point {
	sch := workload.FlightSchema()
	var p Point
	for r := 0; r < repeats; r++ {
		inst.ResetCounters()
		start := time.Now()
		res, err := consistent.Coordinate(sch, qs, inst, consistent.Options{})
		elapsed := time.Since(start)
		if err != nil {
			panic(err)
		}
		p.Millis += float64(elapsed.Microseconds()) / 1000.0
		p.DBQueries += float64(inst.QueriesIssued())
		if res != nil {
			p.SetSize += float64(len(res.Members))
		}
	}
	k := float64(repeats)
	p.Millis /= k
	p.DBQueries /= k
	p.SetSize /= k
	return p
}

// Render prints the series as an aligned text table.
func (s Series) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", s.Name)
	fmt.Fprintf(&sb, "%12s %12s %12s %12s\n", s.XLabel, "time (ms)", "db queries", "set size")
	for _, p := range s.Points {
		fmt.Fprintf(&sb, "%12d %12.3f %12.1f %12.1f\n", p.X, p.Millis, p.DBQueries, p.SetSize)
	}
	return sb.String()
}

// CSV renders the series as comma-separated values with a header.
func (s Series) CSV() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "x,millis,db_queries,set_size\n")
	for _, p := range s.Points {
		fmt.Fprintf(&sb, "%d,%.4f,%.1f,%.1f\n", p.X, p.Millis, p.DBQueries, p.SetSize)
	}
	return sb.String()
}
