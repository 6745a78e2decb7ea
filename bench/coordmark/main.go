// Command coordmark is the repository's benchmark: closed-loop,
// end-to-end runs of the real internal/server over loopback sockets,
// driven through internal/client, on six named workloads, with a
// per-layer budget measured from outside by a separate traced run.
//
//	go run ./coordmark -seed 1                          every workload, both passes, tables
//	go run ./coordmark -seed 1 -workload session_mem_churn
//	go run ./coordmark -seed 1 -workload batch_http_small -trace 1
//	go run ./coordmark -seed 1 -out a.json              keep the full result
//	go run ./coordmark -compare a.json b.json           before/after table; exits 1 on a regression
//
// (from the bench/ directory; bench/run.sh builds and runs it from the
// repository root, which is what BENCHMARK.json names). With -workload
// the last line of standard output is the result object the benchmark
// contract describes. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		name    = flag.String("workload", "", "run this one workload in this process (default: run all, each in a fresh process)")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		seconds = flag.Float64("seconds", 10, "how long a run measures (the benchmark contract's run_seconds)")
		out     = flag.String("out", "", "also write the full result as JSON to this file")
		compare = flag.Bool("compare", false, "compare two result files given as arguments and exit 1 on a regression")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *name == "":
		ok, err := runSuite(*seed, *seconds, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		spec, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		o := runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0}
		if o.trace {
			o.traceFile = filepath.Join(os.TempDir(), "coordmark-trace-"+spec.name+".json")
		}
		res, err := runWorkload(spec, o)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeJSON(*out, res); err != nil {
				fatal(err)
			}
		}
		printRun(os.Stdout, res)
		line, err := json.Marshal(resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// resultLine is the object the benchmark contract asks for on the last
// line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coordmark:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
