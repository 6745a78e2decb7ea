package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the benchmark contract defines it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// The program's declarations and BENCHMARK.json must say the same
// thing: same workloads, same metrics, same units, directions, bounds.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bf.Workloads[i].Name, w.name)
		}
		if why := bf.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, file, prog []metricSpec) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(file), len(prog))
		}
		for i := range prog {
			if file[i] != prog[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, file[i], prog[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end must include setup_s in s, lower is better")
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
}

func smokeRun(t *testing.T, spec workloadSpec, trace bool) *result {
	t.Helper()
	res, err := runWorkload(spec, runOpts{seed: 7, cycles: 1, trace: trace, setupReps: 1})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", spec.name, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s (trace %v): correct=%v attempted=%d failed=%d: %s", spec.name, trace, res.Correct, res.Attempted, res.Failed, res.Error)
	}
	return res
}

func checkMetricSet(t *testing.T, res *result, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, %d declared", res.Workload, len(res.Metrics), len(specs))
	}
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", res.Workload, m.Name)
			continue
		}
		if v.Unit != m.Unit {
			t.Errorf("%s: %s emitted in %q, declared in %q", res.Workload, m.Name, v.Unit, m.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s = %v", res.Workload, m.Name, v.Value)
		}
	}
}

// Every workload, one script cycle (about a hundredth of a full run),
// untraced and traced: outputs check out, nothing fails, the emitted
// metric names are exactly the declared ones with finite values, and
// the exact counts repeat from one run of a seed to the next — also
// when the next one is traced.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			a := smokeRun(t, spec, false)
			checkMetricSet(t, a, endToEnd)
			for _, m := range endToEnd {
				if a.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", spec.name, m.Name, a.Metrics[m.Name].Value)
				}
			}
			for _, m := range clientTiming {
				if v, ok := a.measured(m.Name); !ok || v <= 0 {
					t.Errorf("%s: untraced run measured %s = %v (%v)", spec.name, m.Name, v, ok)
				}
			}
			if spec.name == "cluster3_tenants_http" && a.Extra["xnode_msgs_per_op"] == 0 {
				t.Error("the cluster workload sent no cross-node message")
			}
			if spec.name == "session_durable_fsync" && a.Extra["recovery_ms"] <= 0 {
				t.Error("the durable workload reported no recovery")
			}
			b := smokeRun(t, spec, true)
			checkMetricSet(t, b, perLayer)
			if a.Attempted != b.Attempted {
				t.Errorf("attempted %d then %d", a.Attempted, b.Attempted)
			}
			if x, y := a.Metrics["dbq_per_op"].Value, b.Extra["dbq_per_op"]; x != y {
				t.Errorf("dbq_per_op %v then %v: exact counts must repeat", x, y)
			}
			if x, y := a.Extra["xnode_msgs_per_op"], b.Metrics["cluster.xnode_msgs_per_op"].Value; x != y {
				t.Errorf("xnode_msgs_per_op %v then %v: exact counts must repeat", x, y)
			}
		})
	}
}

// Two seeds give different inputs of identical structure, so the exact
// counts are the same for every seed.
func TestCountsDoNotDependOnSeed(t *testing.T) {
	spec, _ := findWorkload("batch_binary_large")
	var seen float64
	for seed := int64(1); seed <= 2; seed++ {
		res, err := runWorkload(spec, runOpts{seed: seed, cycles: 1, setupReps: 1})
		if err != nil || !res.Correct {
			t.Fatalf("seed %d: %v %v", seed, err, res)
		}
		v := res.Metrics["dbq_per_op"].Value
		if seed > 1 && v != seen {
			t.Errorf("dbq_per_op %v with seed 1, %v with seed %d", seen, v, seed)
		}
		seen = v
	}
}

// The filesystem decorator's discard step must really drop what no
// completed Sync covers, and keep what one does.
func TestDiscardUnsyncedDropsUnsyncedAppend(t *testing.T) {
	fs := newCrashFS(nil)
	path := filepath.Join(t.TempDir(), "log")
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("synced;")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "synced;lost" {
		t.Fatalf("before the crash the file holds %q", got)
	}
	dropped, err := fs.discardUnsynced()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != int64(len("lost")) {
		t.Errorf("discarded %d bytes, want %d", dropped, len("lost"))
	}
	if got, _ := os.ReadFile(path); string(got) != "synced;" {
		t.Errorf("after the crash the file holds %q, want only the synced prefix", got)
	}
	// A file renamed after its sync keeps its synced length; a truncate
	// below it lowers it.
	tmp := filepath.Join(filepath.Dir(path), "tmp")
	g, _ := fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	g.Write([]byte("snapshot"))
	g.Sync()
	g.Close()
	final := filepath.Join(filepath.Dir(path), "snap")
	if err := fs.Rename(tmp, final); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.discardUnsynced(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(final); string(got) != "snapshot" {
		t.Errorf("renamed synced file holds %q after the crash", got)
	}
}

// The churn script must leave the population as it found it, for every
// population shape a workload uses.
func TestChurnScriptIsStationary(t *testing.T) {
	for _, chains := range []int{1, clusterChains, churnChains} {
		for rot := 0; rot < chains; rot++ {
			p, err := planSession("s", 100, chains, 1000, rot)
			if err != nil {
				t.Fatalf("%d chains, rotation %d: %v", chains, rot, err)
			}
			leaves := 0
			for _, o := range p.script {
				if o.kind == opLeave {
					leaves++
				}
			}
			if leaves != leavesPerCycle || len(p.script) != 2*leavesPerCycle {
				t.Errorf("%d chains: %d leaves in %d events, want %d in %d", chains, leaves, len(p.script), leavesPerCycle, 2*leavesPerCycle)
			}
		}
	}
}

// quartiles must be Python's statistics.quantiles(xs, n=4), the rule the
// benchmark contract computes spreads with.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if s := spread(xs); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", s)
	}
}

func suiteWith(workload string, vals map[string]float64, failed int64) suiteResult {
	r := &result{Workload: workload, Correct: failed == 0, Failed: failed, Metrics: map[string]value{}, Extra: map[string]float64{}}
	for k, v := range vals {
		r.Extra[k] = v
	}
	for _, m := range endToEnd {
		if v, ok := vals[m.Name]; ok {
			r.Metrics[m.Name] = value{Value: v}
			delete(r.Extra, m.Name)
		}
	}
	return suiteResult{Schema: "coordmark/v1", Workloads: []workloadRun{{Name: workload, Untraced: r}}}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	n := 0
	write := func(sr suiteResult) string {
		n++
		p := filepath.Join(dir, fmt.Sprintf("r%d.json", n))
		if err := writeJSON(p, sr); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := map[string]float64{"setup_s": 1, "alloc_kb_per_op": 10, "heap_live_mb": 5, "dbq_per_op": 4,
		"xnode_msgs_per_op": 0, "recovery_ms": 100, "cpu_us_per_op": 50}
	with := func(k string, v float64) map[string]float64 {
		m := map[string]float64{}
		for kk, vv := range base {
			m[kk] = vv
		}
		if v < 0 {
			delete(m, k)
		} else {
			m[k] = v
		}
		return m
	}
	a := write(suiteWith("w", base, 0))
	compare := func(a, b string) (bool, string) {
		t.Helper()
		var out bytes.Buffer
		bad, err := compareFiles(&out, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return bad, out.String()
	}

	bad, out := compare(a, write(suiteWith("w", base, 0)))
	if bad || strings.Contains(out, "regressed") || strings.Contains(out, "unresolved") || strings.Contains(out, "missing") {
		t.Errorf("identical results must be ok on every row (bad=%v):\n%s", bad, out)
	}
	for _, c := range []struct {
		why  string
		b    suiteResult
		bad  bool
		says string
	}{
		{"5% more allocation must regress", suiteWith("w", with("alloc_kb_per_op", 10.5), 0), true, "regressed"},
		{"more database queries per operation must regress", suiteWith("w", with("dbq_per_op", 4.0001), 0), true, "regressed"},
		{"a first cross-node message must regress", suiteWith("w", with("xnode_msgs_per_op", 0.5), 0), true, "regressed"},
		{"one run a side cannot resolve a time", suiteWith("w", with("recovery_ms", 120), 0), false, "unresolved"},
		{"newly failing operations must regress", suiteWith("w", base, 3), true, "regressed"},
		{"a metric only side A reports must fail the comparison", suiteWith("w", with("recovery_ms", -1), 0), true, "missing"},
		{"a workload only side A ran must fail the comparison", suiteWith("other", base, 0), true, "missing"},
		{"timing is shown, not gated", suiteWith("w", with("cpu_us_per_op", 80), 0), false, "unresolved  (not gated)"},
	} {
		bad, out := compare(a, write(c.b))
		if bad != c.bad || !strings.Contains(out, c.says) {
			t.Errorf("%s: bad=%v, want %v and %q in\n%s", c.why, bad, c.bad, c.says, out)
		}
	}

	// Repeated runs resolve a time: 20% slower recovery, no spread.
	slow := write(suiteWith("w", with("recovery_ms", 120), 0))
	bad, out = compare(a+","+a, slow+","+slow)
	if !bad || !strings.Contains(out, "regressed") {
		t.Errorf("20%% slower recovery over repeated runs must regress (bad=%v):\n%s", bad, out)
	}
	hot := write(suiteWith("w", with("cpu_us_per_op", 80), 0))
	bad, out = compare(a+","+a, hot+","+hot)
	if bad || !strings.Contains(out, "regressed  (not gated)") {
		t.Errorf("60%% more CPU over repeated runs must show as regressed, not gated:\n%s", out)
	}

	// Several noisy runs per side: not regressed, but not resolvable.
	var noisy []string
	for _, v := range []float64{0.7, 1, 1.3, 1.6} {
		noisy = append(noisy, write(suiteWith("w", with("setup_s", v), 0)))
	}
	bad, out = compare(strings.Join(noisy, ","), strings.Join(noisy, ","))
	if bad || !strings.Contains(out, "unresolved") {
		t.Errorf("a spread wider than the bound must be unresolved (bad=%v):\n%s", bad, out)
	}
}
