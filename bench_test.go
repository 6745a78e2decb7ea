// Benchmarks regenerating the paper's evaluation (§6), one family per
// figure, plus ablation benchmarks for the design choices listed in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The default table for Figures 4/5 is 20,000 rows to keep `go test
// -bench` sessions short; cmd/coordbench uses the paper's full 82,168
// rows. The trends are identical because every body grounds through one
// index probe regardless of table size.
package entangled_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"entangled/internal/consistent"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/netgen"
	"entangled/internal/stream"
	"entangled/internal/workload"
)

const benchTableRows = 20000

// BenchmarkFigure4List measures the SCC Coordination Algorithm on the
// list structure: n queries, each coordinating with the next (Figure 4
// sweeps n = 10..100).
func BenchmarkFigure4List(b *testing.B) {
	inst := db.NewInstance()
	workload.UserTable(inst, benchTableRows)
	for _, n := range []int{10, 25, 50, 75, 100} {
		qs := workload.ListQueries(n, benchTableRows)
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := coord.SCCCoordinate(qs, inst, coord.Options{SkipSafetyCheck: true})
				if err != nil || res.Size() != n {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkFigure5ScaleFree measures the SCC Coordination Algorithm on
// Barabási–Albert coordination structures (Figure 5).
func BenchmarkFigure5ScaleFree(b *testing.B) {
	inst := db.NewInstance()
	workload.UserTable(inst, benchTableRows)
	for _, n := range []int{10, 25, 50, 75, 100} {
		rng := rand.New(rand.NewSource(int64(n)))
		qs := workload.ScaleFreeQueries(n, 2, benchTableRows, rng)
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := coord.SCCCoordinate(qs, inst, coord.Options{SkipSafetyCheck: true})
				if err != nil || res == nil {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkFigure6GraphProcessing measures graph construction and
// preprocessing alone on large scale-free structures (Figure 6 sweeps
// 100..1000 queries; no database work is involved).
func BenchmarkFigure6GraphProcessing(b *testing.B) {
	for _, n := range []int{100, 250, 500, 750, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		qs := workload.ScaleFreeQueries(n, 2, 100, rng)
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := coord.Preprocess(qs)
				if st.Components == 0 {
					b.Fatal("no components")
				}
			}
		})
	}
}

// BenchmarkFigure7Values measures the Consistent Coordination Algorithm
// against a growing number of candidate coordination values: 50
// all-wildcard queries, complete friendships, every flight unique
// (Figure 7 sweeps 100..1000 flights).
func BenchmarkFigure7Values(b *testing.B) {
	const users = 50
	sch := workload.FlightSchema()
	for _, rows := range []int{100, 250, 500, 750, 1000} {
		inst := db.NewInstance()
		workload.FlightsTable(inst, rows, rows)
		workload.CompleteFriends(inst, users)
		qs := workload.FlightQueries(users)
		b.Run(fmt.Sprintf("flights=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := consistent.Coordinate(sch, qs, inst, consistent.Options{})
				if err != nil || res == nil {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkFigure8Queries measures the Consistent Coordination Algorithm
// against a growing number of queries over a fixed 100-value table
// (Figure 8 sweeps 10..100 users).
func BenchmarkFigure8Queries(b *testing.B) {
	sch := workload.FlightSchema()
	for _, users := range []int{10, 25, 50, 75, 100} {
		inst := db.NewInstance()
		workload.FlightsTable(inst, 100, 100)
		workload.CompleteFriends(inst, users)
		qs := workload.FlightQueries(users)
		b.Run(fmt.Sprintf("queries=%d", users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := consistent.Coordinate(sch, qs, inst, consistent.Options{})
				if err != nil || res == nil {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
		})
	}
}

// --- Ablation benchmarks (DESIGN.md "Design choices worth ablating") ---

// BenchmarkAblationIndexes compares indexed against scan-only
// conjunctive evaluation on the Figure 4 workload.
func BenchmarkAblationIndexes(b *testing.B) {
	const n = 25
	const rows = 2000 // scans over the full table make big rows painful
	for _, indexed := range []bool{true, false} {
		inst := db.NewInstance()
		workload.UserTable(inst, rows)
		inst.UseIndexes = indexed
		qs := workload.ListQueries(n, rows)
		name := "indexed"
		if !indexed {
			name = "scan"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := coord.SCCCoordinate(qs, inst, coord.Options{SkipSafetyCheck: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPruning compares the §6.1 pre-pruning step against
// processing without it, on a workload where half the bodies are
// unsatisfiable (pruning pays off by cutting whole dependency chains).
func BenchmarkAblationPruning(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	inst := db.NewInstance()
	workload.UserTable(inst, 2000)
	qs := workload.RandomSafeQueries(60, 2000, 0.1, 0.5, rng)
	for _, skip := range []bool{false, true} {
		name := "prune"
		if skip {
			name = "noprune"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := coord.SCCCoordinate(qs, inst, coord.Options{SkipPruning: skip, SkipSafetyCheck: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGuptaVsSCC compares the Gupta et al. combined-query
// baseline against the SCC algorithm on inputs both can handle (safe and
// unique cycles); the SCC algorithm pays a small graph overhead.
func BenchmarkAblationGuptaVsSCC(b *testing.B) {
	inst := db.NewInstance()
	workload.UserTable(inst, benchTableRows)
	const n = 40
	// A single n-cycle: safe and unique.
	g := netgen.Cycle(n)
	qs := workload.GraphQueries(g, benchTableRows)
	b.Run("gupta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := coord.GuptaCoordinate(qs, inst)
			if err != nil || res.Size() != n {
				b.Fatalf("res=%v err=%v", res, err)
			}
		}
	})
	b.Run("scc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := coord.SCCCoordinate(qs, inst, coord.Options{})
			if err != nil || res.Size() != n {
				b.Fatalf("res=%v err=%v", res, err)
			}
		}
	})
}

// --- Parallel-engine benchmarks (DESIGN.md "Concurrent engine") ---

// benchWorkers is the worker-count axis of the parallel families: the
// sequential baseline against the machine's parallelism.
func benchWorkers() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1, 4}
}

// BenchmarkParallelFigure4List runs the engine's component-parallel
// path on the Figure 4 list workload (n=100). The list condenses to a
// pure chain — zero component-level parallelism — so this family pins
// the acceptance floor: the engine path must not be slower than the
// sequential walk it degrades to.
func BenchmarkParallelFigure4List(b *testing.B) {
	inst := db.NewInstance()
	workload.UserTable(inst, benchTableRows)
	const n = 100
	qs := workload.ListQueries(n, benchTableRows)
	for _, w := range benchWorkers() {
		e := engine.New(inst, engine.Options{Workers: w, Coord: coord.Options{SkipSafetyCheck: true}})
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := e.Coordinate(context.Background(), qs)
				if err != nil || res.Size() != n {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkParallelFigure5ScaleFree runs the component-parallel path on
// the scale-free structure, whose condensation branches and therefore
// admits real component-level concurrency.
func BenchmarkParallelFigure5ScaleFree(b *testing.B) {
	inst := db.NewInstance()
	workload.UserTable(inst, benchTableRows)
	rng := rand.New(rand.NewSource(100))
	qs := workload.ScaleFreeQueries(100, 2, benchTableRows, rng)
	for _, w := range benchWorkers() {
		e := engine.New(inst, engine.Options{Workers: w, Coord: coord.Options{SkipSafetyCheck: true}})
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := e.Coordinate(context.Background(), qs)
				if err != nil || res == nil {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkParallelCoordinateMany serves a batch of independent Figure 4
// requests over one shared instance — the heavy-traffic shape. With
// GOMAXPROCS > 1 the pooled run should beat the single worker; on one
// CPU it must stay comparable.
func BenchmarkParallelCoordinateMany(b *testing.B) {
	inst := db.NewInstance()
	workload.UserTable(inst, benchTableRows)
	const batch, n = 32, 25
	reqs := make([]engine.Request, batch)
	for i := range reqs {
		reqs[i] = engine.Request{ID: fmt.Sprintf("r%d", i), Queries: workload.ListQueries(n, benchTableRows)}
	}
	for _, w := range benchWorkers() {
		e := engine.New(inst, engine.Options{Workers: w, Coord: coord.Options{SkipSafetyCheck: true}})
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, resp := range e.CoordinateMany(context.Background(), reqs) {
					if resp.Err != nil || resp.Result.Size() != n {
						b.Fatalf("resp=%+v", resp)
					}
				}
			}
		})
	}
}

// BenchmarkParallelBruteForce shards the exponential subset enumeration
// on a workload whose maximum coordinating set is small, so most of the
// time goes into refuting large buckets — the shape sharding helps.
func BenchmarkParallelBruteForce(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	inst := db.NewInstance()
	workload.UserTable(inst, 2000)
	qs := workload.RandomSafeQueries(14, 2000, 0.15, 0.4, rng)
	want, err := coord.BruteForceMax(qs, inst)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkers() {
		e := engine.New(inst, engine.Options{Workers: w})
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, err := e.BruteForceMax(context.Background(), qs)
				if err != nil || got.Size() != want.Size() {
					b.Fatalf("got=%v want=%v err=%v", got, want, err)
				}
			}
		})
	}
}

// BenchmarkUnification isolates the MGU computation on a long chain —
// the pure-unification cost of the combined query at the root of the
// Figure 4 workload.
func BenchmarkUnification(b *testing.B) {
	qs := workload.ListQueries(100, 100)
	b.Run("extended-graph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if edges := coord.ExtendedGraph(qs); len(edges) != 99 {
				b.Fatalf("edges = %d", len(edges))
			}
		}
	})
}

// The BenchmarkSharded* family measures what hash-partitioning buys:
// relation-lock granularity. The win is contention relief, so it only
// materialises when goroutines actually contend — run with GOMAXPROCS
// > 1 (or `-cpu 8` to force contention on smaller machines). On one
// single-threaded proc the sharded paths should stay comparable to the
// single instance (they pay a small routing overhead per query).
//
// benchInserter abstracts tuple appends over plain and sharded T so
// the contention benchmarks share one body.
type benchInserter func(key, val eq.Value)

// shardedBenchSetup builds the Figure 4 table on k shards (k == 1
// means a plain instance) and returns the store plus an inserter into
// the same T relation the readers query — writers and readers contend
// for real.
func shardedBenchSetup(k, rows int) (db.Store, benchInserter) {
	if k <= 1 {
		inst := db.NewInstance()
		t := workload.UserTable(inst, rows)
		return inst, func(key, val eq.Value) { t.Insert(key, val) }
	}
	sh := db.NewShardedInstance(k)
	t := workload.UserTableSharded(sh, rows)
	return sh, func(key, val eq.Value) { t.Insert(key, val) }
}

// BenchmarkShardedWriteContention measures parallel write throughput
// into one relation. On a single instance every insert serialises on
// one relation mutex; at 8 shards writers spread over 8 independent
// locks.
func BenchmarkShardedWriteContention(b *testing.B) {
	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			_, insert := shardedBenchSetup(k, 0)
			var ctr int64
			b.RunParallel(func(pb *testing.PB) {
				i := int(atomic.AddInt64(&ctr, 1)) * 1e8
				for pb.Next() {
					i++
					insert(eq.Value("k"+strconv.Itoa(i)), eq.Value("c"+strconv.Itoa(i&511)))
				}
			})
		})
	}
}

// BenchmarkShardedMixedReadWrite is the serving-contention shape: each
// parallel worker mostly runs routed point queries against T with an
// insert into the same relation every few operations. On one instance
// each insert write-locks the whole relation and stalls every
// concurrent reader; at 8 shards it stalls only one partition's
// readers.
func BenchmarkShardedMixedReadWrite(b *testing.B) {
	const rows = 4096
	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			store, insert := shardedBenchSetup(k, rows)
			var ctr int64
			b.RunParallel(func(pb *testing.PB) {
				i := int(atomic.AddInt64(&ctr, 1)) * 1e8
				for pb.Next() {
					i++
					if i%8 == 0 {
						insert(eq.Value("k"+strconv.Itoa(i)), eq.Value("c"+strconv.Itoa(i&1023)))
						continue
					}
					body := []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C(eq.Value("c"+strconv.Itoa(i%rows))))}
					if _, _, err := store.Solve(body); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkShardedCoordinateMany serves concurrent CoordinateMany
// batches while a background writer grows the queried table — the
// end-to-end serving shape sharding targets. Every request pins one
// table value, so at 8 shards requests route to disjoint shards and a
// write stalls at most one request's shard; with only one hardware
// thread the coordination compute dominates and the two configurations
// converge.
func BenchmarkShardedCoordinateMany(b *testing.B) {
	const batch, n = 32, 20
	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			store, insert := shardedBenchSetup(k, benchTableRows)
			e := engine.New(store, engine.Options{Workers: runtime.GOMAXPROCS(0), Coord: coord.Options{SkipSafetyCheck: true}})
			reqs := make([]engine.Request, batch)
			for i := range reqs {
				// Each request pins one value, so distinct requests route
				// to distinct shards.
				reqs[i] = engine.Request{ID: fmt.Sprintf("r%d", i), Queries: workload.ListQueriesAt(n, i%benchTableRows)}
			}
			// The writer is bounded per iteration (not free-running), so
			// the table grows identically for both shard counts and the
			// comparison measures lock contention, not table drift.
			const writesPerIter = 256
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done := make(chan struct{})
				go func(base int) {
					defer close(done)
					for j := 0; j < writesPerIter; j++ {
						w := base + j
						insert(eq.Value("w"+strconv.Itoa(w)), eq.Value("c"+strconv.Itoa(w%benchTableRows)))
					}
				}(i * writesPerIter)
				for _, resp := range e.CoordinateMany(context.Background(), reqs) {
					if resp.Err != nil || resp.Result.Size() != n {
						b.Fatalf("resp=%+v", resp)
					}
				}
				<-done
			}
		})
	}
}

// The BenchmarkStream* family measures streaming sessions (PR 4): what
// incremental re-coordination costs per arrival, against the
// recompute-from-scratch baseline the batch path would pay for the same
// event. The headline metric is dbq/op — database queries per arrival,
// the paper's cost measure — which is size-independent for the delta
// path and linear in session size for full recompute.

// streamBenchSession grows a session to size live queries (chains of 16
// across size/16 scenarios) and returns it with the per-cluster next
// indices.
func streamBenchSession(b *testing.B, store db.Store, size int) (*stream.Session, []int) {
	b.Helper()
	s := stream.New(store, stream.Options{})
	clusters := (size + 15) / 16
	next := make([]int, clusters)
	for i := 0; i < size; i++ {
		c := i % clusters
		if _, err := s.Join(workload.ChainQuery(c, next[c], benchTableRows)); err != nil {
			b.Fatal(err)
		}
		next[c]++
	}
	return s, next
}

// BenchmarkStreamJoin measures one arrival onto a live session at a
// steady size: each iteration joins a new chain tail and immediately
// departs it, so the session neither grows nor shrinks. dbq/op stays
// flat as size grows — the arrival's dirty region is one component
// regardless of how many other scenarios the session holds. Sessions
// never reuse slots (each join-leave pair tombstones one), so the
// session is rebuilt outside the timer every few hundred iterations to
// keep the measurement at a steady slot count instead of drifting with
// b.N.
func BenchmarkStreamJoin(b *testing.B) {
	const rebuildEvery = 512
	for _, size := range []int{64, 256} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			inst := db.NewInstance()
			workload.UserTable(inst, benchTableRows)
			s, next := streamBenchSession(b, inst, size)
			clusters := len(next)
			baseline := s.Totals().DBQueries
			var dbq int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%rebuildEvery == 0 {
					b.StopTimer()
					dbq += s.Totals().DBQueries - baseline
					s, next = streamBenchSession(b, inst, size)
					baseline = s.Totals().DBQueries
					b.StartTimer()
				}
				c := i % clusters
				q := workload.ChainQuery(c, next[c], benchTableRows)
				if _, err := s.Join(q); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Leave(q.ID); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			dbq += s.Totals().DBQueries - baseline
			b.ReportMetric(float64(dbq)/float64(b.N), "dbq/op")
		})
	}
}

// BenchmarkStreamFullRecompute is the baseline the delta path replaces:
// the same arrival served by recomputing the whole session from
// scratch with batch SCCCoordinate. dbq/op is ~2x the session size
// (one satisfiability probe per query plus one grounding per
// component), where the streaming session pays a constant 2.
func BenchmarkStreamFullRecompute(b *testing.B) {
	for _, size := range []int{64, 256} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			inst := db.NewInstance()
			workload.UserTable(inst, benchTableRows)
			clusters := (size + 15) / 16
			qs := make([]eq.Query, 0, size+1)
			for i := 0; i < size; i++ {
				qs = append(qs, workload.ChainQuery(i%clusters, i/clusters, benchTableRows))
			}
			// The arriving query the delta path would process.
			qs = append(qs, workload.ChainQuery(0, size/clusters, benchTableRows))
			var dbq int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := coord.SCCCoordinate(qs, inst, coord.Options{})
				if err != nil || res == nil {
					b.Fatalf("res=%v err=%v", res, err)
				}
				dbq += res.DBQueries
			}
			b.StopTimer()
			b.ReportMetric(float64(dbq)/float64(b.N), "dbq/op")
		})
	}
}

// BenchmarkStreamArrivals drains a full generated arrival sequence
// (256 events) through a fresh session, one sub-benchmark per pattern —
// the end-to-end event-loop throughput including session growth,
// departures and the pruning cascade.
func BenchmarkStreamArrivals(b *testing.B) {
	const n = 256
	for _, p := range workload.Patterns() {
		arrivals := workload.Arrivals(p, n, benchTableRows, 17)
		b.Run(fmt.Sprintf("pattern=%s", p), func(b *testing.B) {
			inst := db.NewInstance()
			workload.UserTable(inst, benchTableRows)
			var dbq int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := stream.New(inst, stream.Options{})
				for _, a := range arrivals {
					ev := stream.Event{Kind: stream.JoinEvent, Query: a.Query}
					if a.Leave {
						ev = stream.Event{Kind: stream.LeaveEvent, ID: a.ID}
					}
					if _, err := s.Apply(ev); err != nil {
						b.Fatal(err)
					}
				}
				dbq += s.Totals().DBQueries
			}
			b.StopTimer()
			b.ReportMetric(float64(dbq)/float64(b.N*n), "dbq/event")
			b.ReportMetric(float64(n), "events/op")
		})
	}
}
