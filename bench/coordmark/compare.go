package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// loadSide reads one side of a comparison: one suite result file, or
// several separated by commas (repeated runs of the same commit).
func loadSide(arg string) ([]suiteResult, error) {
	var out []suiteResult
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var sr suiteResult
		if err := json.Unmarshal(data, &sr); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if sr.Schema != "coordmark/v1" {
			return nil, fmt.Errorf("%s: not a coordmark/v1 suite result", path)
		}
		out = append(out, sr)
	}
	return out, nil
}

// compareRow is one metric -compare judges. A gated row decides the
// exit code; the others are printed with a verdict for information.
type compareRow struct {
	metricSpec
	gated bool
}

// compareRows lists the issue's ten end-to-end metrics: the declared
// ones (dbq_per_op held to zero, as it repeats exactly) and the two
// that apply to one workload are gated; the closed loop's timing,
// which does not hold its bound from one run to the next on a shared
// host, is shown against it.
func compareRows() []compareRow {
	var rows []compareRow
	for _, m := range endToEnd {
		if m.Name == "dbq_per_op" {
			m.Bound = 0
		}
		rows = append(rows, compareRow{m, true})
	}
	for _, m := range oneWorkload {
		rows = append(rows, compareRow{m, true})
	}
	for _, m := range clientTiming {
		rows = append(rows, compareRow{m, false})
	}
	return rows
}

// measured returns what an untraced run measured under the name: a
// declared metric, a clientTiming median, or an extra.
func (r *result) measured(name string) (float64, bool) {
	if v, ok := r.Metrics[name]; ok {
		return v.Value, true
	}
	if s, ok := r.timingSummary(name); ok {
		return s.Median, r.Timing.Calls > 0
	}
	v, ok := r.Extra[name]
	return v, ok
}

// runsOf returns a side's untraced runs of one workload.
func runsOf(side []suiteResult, workload string) []*result {
	var out []*result
	for _, sr := range side {
		for _, w := range sr.Workloads {
			if w.Name == workload && w.Untraced != nil {
				out = append(out, w.Untraced)
			}
		}
	}
	return out
}

// sideValues collects one metric across a side's runs of a workload,
// and the spread to judge it by: across runs when there are several,
// else the run's own per-slice quartiles where the metric has slices.
func sideValues(runs []*result, metric string) (vals []float64, spr float64) {
	var last *result
	for _, r := range runs {
		if v, ok := r.measured(metric); ok {
			vals = append(vals, v)
			last = r
		}
	}
	if len(vals) > 1 {
		return vals, spread(vals)
	}
	if last != nil {
		if s, ok := last.timingSummary(metric); ok {
			spr = spread(s.Slices)
		} else if metric == "setup_s" {
			spr = spread(last.SetupRuns)
		}
	}
	return vals, spr
}

// timed reports whether the metric is a time or a rate, which on a
// shared host moves from one run to the next by more than a run's own
// slices or set-ups show.
func (m metricSpec) timed() bool {
	switch m.Unit {
	case "s", "ms", "us", "1/s":
		return true
	}
	return false
}

// worseBy is how much worse b is than a, as a share of a. A metric that
// was 0 and is not any more has no share to give: it is infinitely
// worse, or better.
func worseBy(a, b float64, better string) float64 {
	d := b - a
	if better == "higher" {
		d = -d
	}
	switch {
	case d == 0:
		return 0
	case a == 0:
		return math.Inf(int(math.Copysign(1, d)))
	}
	return d / math.Abs(a)
}

// workloadNames is every workload either side ran, in A's order, then
// the ones only B has.
func workloadNames(a, b []suiteResult) []string {
	var names []string
	seen := map[string]bool{}
	for _, side := range [][]suiteResult{a, b} {
		for _, sr := range side {
			for _, w := range sr.Workloads {
				if !seen[w.Name] {
					seen[w.Name] = true
					names = append(names, w.Name)
				}
			}
		}
	}
	return names
}

// compareFiles prints, per workload and metric, both medians, how much
// worse side B is, the bound, the run-to-run spread, and a verdict:
// regressed (worse by more than the bound and than the spread),
// unresolved (worse by more than the bound but inside the spread, or
// the spread is wider than the bound, so "unchanged" cannot be
// claimed), missing (a workload or metric only one side reports), or
// ok. A time needs repeated runs on both sides to be called regressed:
// one run cannot tell its run-to-run spread, and is unresolved instead.
// It reports whether a gated row regressed or is missing, or an
// operation failed on side B that did not on side A.
func compareFiles(w io.Writer, a, b string) (bool, error) {
	sideA, err := loadSide(a)
	if err != nil {
		return false, err
	}
	sideB, err := loadSide(b)
	if err != nil {
		return false, err
	}
	ea, eb := sideA[0].Environment, sideB[0].Environment
	fmt.Fprintf(w, "A: %s  commit %s  seed %d  %d run(s)  nproc %d  %s\n", a, ea.Commit, sideA[0].Seed, len(sideA), ea.NProc, ea.CPUModel)
	fmt.Fprintf(w, "B: %s  commit %s  seed %d  %d run(s)  nproc %d  %s\n", b, eb.Commit, sideB[0].Seed, len(sideB), eb.NProc, eb.CPUModel)
	fmt.Fprintf(w, "%-24s %-18s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "spread", "verdict")
	bad := false
	for _, name := range workloadNames(sideA, sideB) {
		runsA, runsB := runsOf(sideA, name), runsOf(sideB, name)
		if len(runsA) == 0 || len(runsB) == 0 {
			fmt.Fprintf(w, "%-24s ran %d time(s) on A, %d on B: missing\n", name, len(runsA), len(runsB))
			bad = true
			continue
		}
		var failedA, failedB int64
		for _, r := range runsA {
			failedA += r.Failed
		}
		for _, r := range runsB {
			failedB += r.Failed
		}
		if failedB > failedA {
			fmt.Fprintf(w, "%-24s %d operations failed on B, %d on A: regressed\n", name, failedB, failedA)
			bad = true
		}
		for _, row := range compareRows() {
			va, sa := sideValues(runsA, row.Name)
			vb, sb := sideValues(runsB, row.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue // the metric does not apply to this workload
			}
			note := "  (not gated)"
			if row.gated {
				note = ""
			}
			if len(va) != len(runsA) || len(vb) != len(runsB) {
				fmt.Fprintf(w, "%-24s %-18s reported by %d of %d runs of A, %d of %d of B: missing%s\n", name, row.Name, len(va), len(runsA), len(vb), len(runsB), note)
				bad = bad || row.gated
				continue
			}
			ma, mb := median(va), median(vb)
			worse := worseBy(ma, mb, row.Better)
			spr := math.Max(sa, sb)
			verdict := "ok"
			repeated := len(runsA) > 1 && len(runsB) > 1
			switch {
			case worse > math.Max(row.Bound, spr) && (repeated || !row.timed()):
				verdict = "regressed"
				bad = bad || row.gated
			case worse > row.Bound || spr > row.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-24s %-18s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s%s\n",
				name, row.Name, ma, mb, worse*100, row.Bound*100, spr*100, verdict, note)
		}
	}
	return bad, nil
}
