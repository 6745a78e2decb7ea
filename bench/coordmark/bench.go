package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 9

// runOpts is one run of one workload. cycles and setupReps are for the
// package's tests, which run a hundredth of a script; the command
// leaves them zero.
type runOpts struct {
	seed      int64
	seconds   float64
	trace     bool
	traceFile string // where the traced run writes its spans ("" keeps them in memory only)
	cycles    int    // > 0: run this many script cycles per worker instead of for seconds
	setupReps int    // 0: setupReps
}

// result is everything one run reports. The driver's result line is
// derived from it; the suite keeps all of it.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Seconds   float64          `json:"seconds"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Error     string           `json:"error,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	// Timing holds the per-slice values and quartiles behind the timing
	// metrics (of the traced phase in a traced run).
	Timing timing `json:"timing"`
	// Cycles is how many whole script cycles each worker ran.
	Cycles []int `json:"cycles"`
	// SetupRuns are the individual set-up times setup_s is the median of.
	SetupRuns []float64 `json:"setup_runs_s,omitempty"`
	// Extra carries what the run measured beside its declared metrics:
	// in an untraced run cpu_us_per_op (with Timing, the clientTiming
	// measurements) and the oneWorkload metrics.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// setUp builds the workload once, warm-up cycle included, and reports
// how long everything before the first measured operation took.
func setUp(ctx context.Context, spec workloadSpec, e env) (*instance, float64, error) {
	start := time.Now()
	in, err := spec.build(e)
	if err == nil {
		err = warmUp(ctx, in)
	}
	took := time.Since(start).Seconds()
	if err != nil {
		if in != nil {
			in.close()
		}
		return nil, 0, err
	}
	return in, took, nil
}

// runWorkload performs one run. Any error in set-up is returned; wrong
// outputs and failed operations are reported in the result, which then
// says correct=false.
func runWorkload(spec workloadSpec, o runOpts) (*result, error) {
	// Data directories go under the temporary directory: bench/run.sh
	// points TMPDIR inside the checkout.
	dir, err := os.MkdirTemp("", "coordmark-"+spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &result{Workload: spec.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Metrics: map[string]value{}, Extra: map[string]float64{}}
	if o.trace {
		err = runTraced(spec, o, dir, res)
	} else {
		err = runUntraced(spec, o, dir, res)
	}
	return res, err
}

func runUntraced(spec workloadSpec, o runOpts, dir string, res *result) error {
	ctx := context.Background()
	// Set up several times and report the median; the last set-up is
	// the one the run measures.
	reps := o.setupReps
	if reps == 0 {
		reps = setupReps
	}
	var in *instance
	for rep := 0; rep < reps; rep++ {
		if in != nil {
			in.close()
		}
		var took float64
		var err error
		in, took, err = setUp(ctx, spec, env{seed: o.seed, workdir: filepath.Join(dir, fmt.Sprintf("setup%d", rep))})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		res.SetupRuns = append(res.SetupRuns, took)
	}
	defer in.close()
	runtime.GC()

	lr := runLoop(ctx, in, loopOpts{seconds: o.seconds, cycles: o.cycles})
	res.Timing = sliceTiming(in, lr, spec.tail)
	res.Cycles = lr.cycles
	res.Attempted, res.Failed = lr.attempted, lr.failed
	ops := float64(lr.ops)
	if ops == 0 {
		ops = 1
	}
	lr.recs = nil // the harness's own samples are not the system's heap
	heap := heapLive()

	firstErr := lr.firstErr
	if err := in.check(ctx); err != nil && firstErr == nil {
		firstErr = err
	}
	res.Correct = firstErr == nil && lr.failed == 0 && lr.ops > 0
	if firstErr != nil {
		res.Error = firstErr.Error()
	}

	vals := map[string]float64{
		"setup_s":         median(res.SetupRuns),
		"alloc_kb_per_op": float64(lr.alloc) / 1024 / ops,
		"heap_live_mb":    heap,
		"dbq_per_op":      lr.dbqPerOp,
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
	}
	res.Extra["cpu_us_per_op"] = float64(lr.cpu) / 1e3 / ops
	res.Extra["xnode_msgs_per_op"] = lr.xnodePerOp
	res.Extra["wall_s"] = lr.wall.Seconds()
	if d := in.durable; d != nil {
		res.Extra["recovery_ms"] = float64(d.recovery) / 1e6
		res.Extra["discarded_unsynced_bytes"] = float64(d.droppedBytes)
	}
	return nil
}

// Shares of a traced run's --seconds: an untraced reference phase on a
// plain instance, the traced closed loop, and (the rest) the nested
// sample and the standalone replays.
const (
	refShare    = 0.3
	tracedShare = 0.4
	nestedShare = 0.2
	// replayShare is the share each of the (up to nine) standalone
	// replays loops for.
	replayShare = 0.01
)

func runTraced(spec workloadSpec, o runOpts, dir string, res *result) error {
	ctx := context.Background()

	// Reference: the same script on an instance with no seam installed.
	plain, _, err := setUp(ctx, spec, env{seed: o.seed, workdir: filepath.Join(dir, "plain")})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	ref := runLoop(ctx, plain, loopOpts{seconds: o.seconds * refShare, cycles: o.cycles})
	refTiming := sliceTiming(plain, ref, spec.tail)
	plain.close()
	if ref.firstErr != nil {
		return fmt.Errorf("reference phase: %w", ref.firstErr)
	}

	tr := newTracer()
	in, _, err := setUp(ctx, spec, env{seed: o.seed, workdir: filepath.Join(dir, "traced"), tr: tr})
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer in.close()
	before, err := snapshotNodes(in)
	if err != nil {
		return err
	}
	peak := watchGoroutines()
	tr.on.Store(true)
	lr := runLoop(ctx, in, loopOpts{seconds: o.seconds * tracedShare, cycles: o.cycles})
	tr.on.Store(false)
	goroutines := peak()
	after, err := snapshotNodes(in)
	if err != nil {
		return err
	}
	res.Timing = sliceTiming(in, lr, spec.tail)
	res.Cycles = lr.cycles
	res.Attempted, res.Failed = lr.attempted, lr.failed

	lc := &layerCtx{
		ctx: ctx, tr: tr, in: in, res: lr, tm: res.Timing, before: before, after: after,
		nested: time.Duration(o.seconds * nestedShare * float64(time.Second)),
		replay: time.Duration(o.seconds * replayShare * float64(time.Second)),
		out:    map[string]float64{},
	}
	firstErr := lr.firstErr
	if err := in.layers.measure(lc); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("layer measurement: %w", err)
	}
	if err := in.check(ctx); err != nil && firstErr == nil {
		firstErr = err
	}
	lc.set("client.throughput_ops_s", refTiming.Throughput.Median)
	lc.set("client.latency_p50_us", refTiming.P50.Median)
	lc.set("client.latency_tail_us", refTiming.Tail.Median)
	if ref.ops > 0 {
		lc.set("client.cpu_us_per_op", float64(ref.cpu)/1e3/float64(ref.ops))
	}
	lc.set("proc.goroutines_peak", float64(goroutines))
	if refTiming.Throughput.Median > 0 {
		lc.set("trace.overhead_share", 1-res.Timing.Throughput.Median/refTiming.Throughput.Median)
	}
	if d := in.durable; d != nil && d.recovery > 0 {
		lc.set("persist.recover_ms", float64(d.recovery)/1e6)
		lc.set("persist.recover_events_per_s", float64(d.recoveredEvs)/d.recovery.Seconds())
		lc.set("persist.snapshot_ms", float64(in.nodes[0].snapshot)/1e6)
	}
	res.Correct = firstErr == nil && lr.failed == 0 && lr.ops > 0
	if firstErr != nil {
		res.Error = firstErr.Error()
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = value{Value: lc.out[m.Name], Unit: m.Unit}
	}
	for name := range lc.out {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("layer metric %s is measured but not declared", name)
		}
	}
	res.Extra["dbq_per_op"] = lr.dbqPerOp
	res.Extra["traced_throughput_ops_s"] = res.Timing.Throughput.Median
	res.Extra["reference_throughput_ops_s"] = refTiming.Throughput.Median
	res.Extra["traced_latency_p50_us"] = res.Timing.P50.Median
	if o.traceFile != "" {
		if err := tr.writeSpans(o.traceFile); err != nil {
			return err
		}
	}
	return nil
}

// watchGoroutines samples the goroutine count until the returned
// function is called, which stops the sampling and returns the peak.
func watchGoroutines() func() int {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	peak := runtime.NumGoroutine()
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			}
		}
	}()
	return func() int {
		close(stop)
		wg.Wait()
		return peak
	}
}
