package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// slices is how many equal-count slices the measured phase is cut into;
// every timing metric is the median over them.
const slices = 10

// callRec is one completed call as the client saw it.
type callRec struct {
	end int64 // ns since the phase began
	lat int64 // ns
	idx int32 // position in the worker's script
}

// loopOpts bounds one closed-loop phase: by time (whole cycles until
// the deadline has passed) or, when cycles > 0, by a fixed number of
// script cycles per worker.
type loopOpts struct {
	seconds float64
	cycles  int
}

// loopResult is what one closed-loop phase observed.
type loopResult struct {
	window    time.Duration // the span timing metrics are computed over
	wall      time.Duration // phase start until the last worker finished its cycle
	recs      [][]callRec   // per worker
	cycles    []int         // whole cycles per worker
	ops       int64         // operations in whole cycles
	attempted int64
	failed    int64
	// dbqPerOp and xnodePerOp are the database queries and cross-node
	// messages of one round of the scripts — every worker's cycle counted
	// once — over that round's operations. Workers' scripts differ on the
	// cluster workload, so a ratio of the run's totals would move with
	// how many cycles each worker got through in the time; this does not.
	dbqPerOp   float64
	xnodePerOp float64
	cpu        time.Duration // process user+system CPU over wall
	alloc      uint64        // bytes allocated over wall
	gcCycles   uint32
	gcPause    time.Duration
	firstErr   error
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runLoop drives every worker of the instance in a closed loop: each
// sends its script's calls one after the other, waiting for every
// answer, cycle after cycle. A worker always finishes the cycle it is
// in, so counts are taken over whole cycles and per-operation ratios
// repeat exactly; timing metrics use only the calls that ended inside
// the window, during all of which every worker was running.
func runLoop(ctx context.Context, in *instance, lo loopOpts) *loopResult {
	res := &loopResult{recs: make([][]callRec, len(in.workers)), cycles: make([]int, len(in.workers))}
	var ops, attempted, failed atomic.Int64
	workerOps, workerDBQ := make([]int64, len(in.workers)), make([]int64, len(in.workers))
	var errOnce sync.Once

	var ms0, ms1 runtime.MemStats
	var xnode0 int64
	if in.xnodeMsgs != nil {
		xnode0 = in.xnodeMsgs()
	}
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(lo.seconds * float64(time.Second)))

	var wg sync.WaitGroup
	for wi, w := range in.workers {
		wg.Add(1)
		go func(wi int, w *worker) {
			defer wg.Done()
			var recs []callRec
			for cycle := 0; ; cycle++ {
				if lo.cycles > 0 {
					if cycle == lo.cycles {
						break
					}
				} else if !time.Now().Before(deadline) {
					break
				}
				for i := range w.script {
					o := &w.script[i]
					t0 := time.Now()
					out, err := w.exec(ctx, o)
					t1 := time.Now()
					recs = append(recs, callRec{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)), idx: int32(i)})
					attempted.Add(int64(o.n))
					if err == nil && out.digest != o.want {
						err = fmt.Errorf("script call %d answered differently than in warm-up (digest %x, want %x)", i, out.digest, o.want)
					}
					if err != nil {
						failed.Add(int64(o.n))
						errOnce.Do(func() { res.firstErr = err })
						continue
					}
					ops.Add(int64(o.n))
					workerOps[wi] += int64(o.n)
					workerDBQ[wi] += out.dbq
				}
				res.cycles[wi]++
			}
			res.recs[wi] = recs
		}(wi, w)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	res.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	var roundOps, roundDBQ, roundXnode float64
	for wi, w := range in.workers {
		if c := float64(res.cycles[wi]); c > 0 {
			roundOps += float64(workerOps[wi]) / c
			roundDBQ += float64(workerDBQ[wi]) / c
			roundXnode += float64(w.xnodePerCycle)
		}
	}
	if roundOps > 0 {
		res.dbqPerOp, res.xnodePerOp = roundDBQ/roundOps, roundXnode/roundOps
	}
	if in.xnodeMsgs != nil {
		// The script's cross-node cost is what xnodePerOp reports, so the
		// servers' counters must agree with it to the message.
		xnode := in.xnodeMsgs() - xnode0
		var want int64
		for wi, w := range in.workers {
			want += int64(res.cycles[wi]) * w.xnodePerCycle
		}
		if xnode != want && res.firstErr == nil {
			res.firstErr = fmt.Errorf("run cost %d cross-node messages, its script must cost exactly %d", xnode, want)
			failed.Add(1)
		}
	}
	res.ops, res.attempted, res.failed = ops.Load(), attempted.Load(), failed.Load()
	res.window = res.wall
	if lo.cycles == 0 {
		res.window = deadline.Sub(start)
	}
	return res
}

// warmUp runs one cycle of every worker's script concurrently, fully
// verifying each answer where the workload can (verifyOp), and pins the
// outcome every later execution of the call must reproduce. It is the
// excluded prefix of the run: plan caches fill, connections are
// dialled, and the sessions' first compaction happens here.
func warmUp(ctx context.Context, in *instance) error {
	errs := make(chan error, len(in.workers))
	for _, w := range in.workers {
		go func(w *worker) {
			for i := range w.script {
				o := &w.script[i]
				var out outcome
				var err error
				if in.verifyOp != nil && o.kind != opJoin && o.kind != opLeave {
					out, err = in.verifyOp(ctx, w, o)
				} else {
					out, err = w.exec(ctx, o)
				}
				if err != nil {
					errs <- fmt.Errorf("warm-up call %d: %w", i, err)
					return
				}
				o.want = out.digest
			}
			errs <- nil
		}(w)
	}
	var first error
	for range in.workers {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// timing is the per-slice view of one closed-loop phase, as the clock
// read it.
type timing struct {
	Throughput summary `json:"throughput_ops_s"`
	P50        summary `json:"latency_p50_us"`
	Tail       summary `json:"latency_tail_us"`
	// TailPercentile is the workload's fixed tail percentile and
	// TailSamples the number of calls per slice — the tail is
	// trustworthy while at least ten samples lie beyond it.
	TailPercentile float64 `json:"tail_percentile"`
	TailSamples    int     `json:"tail_samples_per_slice"`
	Calls          int     `json:"calls"`
	// Trend is the last slice's throughput over the first's; a
	// stationary workload keeps it near 1.
	Trend float64 `json:"trend_last_over_first"`
}

// sliceTiming cuts the calls that ended inside the window, in the order
// they ended, into equal-count slices and reports, per slice,
// operations completed per second and the latency median and tail.
// Equal counts (rather than equal durations) keep every slice's sample
// the same size and make a slice's duration, not its count, the
// measured quantity.
func sliceTiming(in *instance, res *loopResult, tail float64) timing {
	type timed struct {
		end, lat int64
		ops      int
	}
	var calls []timed
	for wi, recs := range res.recs {
		for _, r := range recs {
			if r.end <= int64(res.window) { // later ones are counted, not timed
				calls = append(calls, timed{r.end, r.lat, in.workers[wi].script[r.idx].n})
			}
		}
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].end < calls[j].end })
	t := timing{TailPercentile: tail, Calls: len(calls), TailSamples: len(calls) / slices}
	if len(calls) < slices {
		return t
	}
	tp, p50, pt := make([]float64, slices), make([]float64, slices), make([]float64, slices)
	var from int64
	for s := 0; s < slices; s++ {
		group := calls[s*len(calls)/slices : (s+1)*len(calls)/slices]
		lat := make([]float64, len(group))
		ops := 0
		for i, c := range group {
			lat[i] = float64(c.lat) / 1e3
			ops += c.ops
		}
		sort.Float64s(lat)
		to := group[len(group)-1].end
		tp[s] = float64(ops) / (float64(to-from) / 1e9)
		p50[s] = percentile(lat, 0.5)
		pt[s] = percentile(lat, tail)
		from = to
	}
	t.Throughput, t.P50, t.Tail = summarize(tp), summarize(p50), summarize(pt)
	t.Trend = tp[slices-1] / tp[0]
	return t
}

// heapLive forces two collections — the second empties the sync.Pool
// victim caches the first one filled — and reads the live heap, with
// servers and sessions still open.
func heapLive() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
