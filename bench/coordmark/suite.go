package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// environment is what a result must say about where it was measured for
// two results to be comparable.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Time       string `json:"time"`
}

func describeEnvironment() environment {
	e := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	// The go tool stamps the commit into the binary when it builds inside
	// a git checkout; elsewhere (the driver's plain copy) it stays unknown.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+modified"
				}
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// suiteResult is the self-describing record of one suite run: the
// seed, where it ran, and for every workload the untraced run (the
// end-to-end metrics) and the traced run (the per-layer metrics).
type suiteResult struct {
	Schema      string        `json:"schema"`
	Seed        int64         `json:"seed"`
	Seconds     float64       `json:"seconds"`
	Environment environment   `json:"environment"`
	EndToEnd    []metricSpec  `json:"end_to_end"`
	PerLayer    []metricSpec  `json:"per_layer"`
	Workloads   []workloadRun `json:"workloads"`
}

type workloadRun struct {
	Name     string  `json:"name"`
	Untraced *result `json:"untraced"`
	Traced   *result `json:"traced"`
}

// runSuite runs every workload, each pass in a fresh process (coordmark
// re-executes itself) so heap and CPU numbers do not leak from one
// workload into the next. It reports whether every run was correct.
func runSuite(seed int64, seconds float64, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	sr := suiteResult{Schema: "coordmark/v1", Seed: seed, Seconds: seconds, Environment: describeEnvironment(), EndToEnd: endToEnd, PerLayer: perLayer}
	ok := true
	for _, w := range workloads {
		run := workloadRun{Name: w.name}
		for _, trace := range []int{0, 1} {
			tmp := filepath.Join(os.TempDir(), fmt.Sprintf("coordmark-suite-%d-%s-%d.json", os.Getpid(), w.name, trace))
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-trace", strconv.Itoa(trace),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", tmp,
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			data, err := os.ReadFile(tmp)
			os.Remove(tmp)
			if err != nil {
				return false, fmt.Errorf("%s (trace %d): %v", w.name, trace, runErr)
			}
			var r result
			if err := json.Unmarshal(data, &r); err != nil {
				return false, err
			}
			ok = ok && r.Correct
			if trace == 0 {
				run.Untraced = &r
			} else {
				run.Traced = &r
			}
		}
		sr.Workloads = append(sr.Workloads, run)
	}
	if out != "" {
		if err := writeJSON(out, sr); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// printRun prints one run for people: every metric by name and unit,
// the quartiles beside the timing medians, operations attempted and
// failed.
func printRun(w io.Writer, r *result) {
	pass := "untraced"
	if r.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  %.3gs  cycles %v\n", r.Workload, r.Seed, pass, r.Seconds, r.Cycles)
	fmt.Fprintf(w, "   ops attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	if r.Error != "" {
		fmt.Fprintf(w, "   error: %s\n", r.Error)
	}
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	for _, m := range specs {
		v := r.Metrics[m.Name]
		line := fmt.Sprintf("   %-34s %14.4f %-8s", m.Name, v.Value, v.Unit)
		if m.Name == "setup_s" {
			line += fmt.Sprintf(" runs %.4f", r.SetupRuns)
		}
		fmt.Fprintln(w, line)
	}
	if !r.Trace {
		// The closed loop's own timing: measured by every run, a
		// per-layer metric (client.*) as far as BENCHMARK.json goes.
		for _, m := range clientTiming {
			if s, ok := r.timingSummary(m.Name); ok {
				line := fmt.Sprintf("   %-34s %14.4f %-8s q1 %.4f  q3 %.4f", m.Name, s.Median, m.Unit, s.Q1, s.Q3)
				if m.Name == "latency_tail_us" {
					line += fmt.Sprintf("  (p%g, >=%d calls per slice)", r.Timing.TailPercentile*100, r.Timing.TailSamples)
				}
				fmt.Fprintln(w, line)
			}
		}
		fmt.Fprintf(w, "   %-34s %14.4f\n", "throughput trend (last/first slice)", r.Timing.Trend)
	}
	for _, k := range sortedKeys(r.Extra) {
		fmt.Fprintf(w, "   %-34s %14.4f\n", k, r.Extra[k])
	}
}

// timingSummary is the per-slice distribution behind one of the
// clientTiming measurements of an untraced run, where it has one.
func (r *result) timingSummary(name string) (summary, bool) {
	switch name {
	case "throughput_ops_s":
		return r.Timing.Throughput, true
	case "latency_p50_us":
		return r.Timing.P50, true
	case "latency_tail_us":
		return r.Timing.Tail, true
	}
	return summary{}, false
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
