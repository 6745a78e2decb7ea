//go:build !race

package db

import (
	"context"
	"runtime"
	"strconv"
	"testing"

	"entangled/internal/eq"
)

// The race detector's instrumentation allocates, so this file is not
// built under it.

var sinkBinding Binding

// TestSolveUnderAllocationBar holds a choose-1 answer to what the API
// must hand back: in steady state (plan cached, exec pooled) SolveUnder
// on the coordination hot loop's body makes one allocation, the frame —
// a value of 16 bytes per variable left to the database, whose name the
// caller already knows — and Satisfiable, which hands back no binding,
// makes none.
func TestSolveUnderAllocationBar(t *testing.T) {
	const vars, header = 10, 32
	in, body, subs := solveUnderFixture(t, vars)
	i := 0
	solve := func() {
		b, ok, err := in.SolveUnder(body, subs[i%len(subs)])
		if err != nil || !ok || b.Len() != vars {
			t.Fatalf("binding %v ok=%v err=%v", b, ok, err)
		}
		sinkBinding = b
		i++
	}
	for range subs { // compile the plan, fill the pools, settle each substitution
		solve()
	}
	if allocs := testing.AllocsPerRun(200, solve); allocs > 1 {
		t.Errorf("SolveUnder: %.0f allocations per call, want at most 1", allocs)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		solve()
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("SolveUnder, %d variables: %.0f B/call", vars, perCall)
	if perCall > 16*vars+header {
		t.Errorf("SolveUnder: %.0f B per call over the %d B bar", perCall, 16*vars+header)
	}

	sat := func() {
		if ok, err := in.Satisfiable(body); err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
	}
	sat()
	if allocs := testing.AllocsPerRun(200, sat); allocs != 0 {
		t.Errorf("Satisfiable: %.0f allocations per call, want 0", allocs)
	}
}

// TestReleasedSolveUnderAllocatesNothing holds the section-4 walk's use
// of a frame: in steady state, SolveUnder followed by Release makes no
// allocation at 1, 40 and 400 slots — each answer fills the frame the
// one before it handed back.
func TestReleasedSolveUnderAllocatesNothing(t *testing.T) {
	for _, vars := range []int{1, 40, 400} {
		in, body, subs := solveUnderFixture(t, vars)
		i := 0
		solve := func() {
			b, ok, err := in.SolveUnder(body, subs[i%len(subs)])
			if err != nil || !ok || b.Len() != vars {
				t.Fatalf("%d slots: binding of %d, ok=%v err=%v", vars, b.Len(), ok, err)
			}
			b.Release()
			i++
		}
		solve() // compile the plan, fill the pools
		if allocs := testing.AllocsPerRun(200, solve); allocs != 0 {
			t.Errorf("%d slots: SolveUnder and Release make %.1f allocations, want 0", vars, allocs)
		}
	}
}

var sinkStore Store

// TestWithContextIsOneAllocation holds the batch path's per-request
// guard to one 32-byte allocation: the context lives in the guard
// itself, not boxed beside it.
func TestWithContextIsOneAllocation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := NewInstance()
	wrap := func() { sinkStore = WithContext(ctx, in) }
	if allocs := testing.AllocsPerRun(200, wrap); allocs != 1 {
		t.Errorf("WithContext: %.0f allocations per call, want 1", allocs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		wrap()
	}
	runtime.ReadMemStats(&after)
	if perCall := float64(after.TotalAlloc-before.TotalAlloc) / runs; perCall > 32 {
		t.Errorf("WithContext: %.0f B per call, want 32", perCall)
	}
}

// TestProjectAllocatesNothing holds a steady-state batch of where
// clauses, as §5 asks its option lists, to no allocation: the flattened
// clauses fill the scratch an earlier batch handed back, and the answer
// is yielded in place.
func TestProjectAllocatesNothing(t *testing.T) {
	in := NewInstance()
	r := in.CreateRelation("P", "user", "dest", "day")
	for i := range 200 {
		r.Insert(eq.Value("u"+strconv.Itoa(i%40)), eq.Value("d"+strconv.Itoa(i%7)), eq.Value("t"+strconv.Itoa(i%5)))
	}
	wheres := make([]map[int]eq.Value, 40)
	for i := range wheres {
		wheres[i] = map[int]eq.Value{0: eq.Value("u" + strconv.Itoa(i)), 2: eq.Value("t" + strconv.Itoa(i%5))}
	}
	cols, rows := []int{1}, 0
	where := func(i int) map[int]eq.Value { return wheres[i] }
	yield := func(int, Tuple) { rows++ }
	ask := func() {
		if err := in.Project("P", cols, len(wheres), where, yield); err != nil {
			t.Fatal(err)
		}
	}
	ask()
	if rows == 0 {
		t.Fatal("the batch matched no row")
	}
	if allocs := testing.AllocsPerRun(200, ask); allocs != 0 {
		t.Errorf("Project: %.0f allocations per batch, want 0", allocs)
	}
}
