package experiments

import (
	"math/rand"
	"time"

	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/netgen"
	"entangled/internal/workload"
)

// AblationPruning compares the §6.1 pre-pruning step against processing
// without it on workloads where a fraction of bodies are unsatisfiable.
func AblationPruning(cfg Config) []Series {
	cfg = cfg.withDefaults(seq(10, 50, 10))
	if cfg.TableRows == netgen.SlashdotSize {
		cfg.TableRows = 2000
	}
	var out []Series
	for _, skip := range []bool{false, true} {
		name := "Ablation: with pruning"
		if skip {
			name = "Ablation: without pruning"
		}
		s := Series{Name: name, XLabel: "queries"}
		inst := db.NewInstance()
		inst.SimulatedLatency = cfg.Latency
		workload.UserTable(inst, cfg.TableRows)
		for _, n := range cfg.Sizes {
			rng := rand.New(rand.NewSource(int64(n)))
			qs := workload.RandomSafeQueries(n, cfg.TableRows, 0.1, 0.5, rng)
			var p Point
			for r := 0; r < cfg.Repeats; r++ {
				inst.ResetCounters()
				start := time.Now()
				res, err := coord.SCCCoordinate(qs, inst, coord.Options{SkipPruning: skip})
				if err != nil {
					panic(err)
				}
				p.Millis += float64(time.Since(start).Microseconds()) / 1000.0
				p.DBQueries += float64(inst.QueriesIssued())
				p.SetSize += float64(res.Size())
			}
			k := float64(cfg.Repeats)
			s.Points = append(s.Points, Point{X: n, Millis: p.Millis / k, DBQueries: p.DBQueries / k, SetSize: p.SetSize / k})
		}
		out = append(out, s)
	}
	return out
}
