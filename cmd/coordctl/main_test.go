package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The Figure 1 band over testdata's flights and hotels: {qC, qG} share
// flight 70 and hotel h1 in Paris; qJ finds no Athens flight they share,
// and qW depends on qJ. The walk asks three database queries, one for
// each component it searches, largest set first: {qW}, {qJ}, {qC, qG}.
const (
	tables = "-table F=testdata/flights.csv -table H=testdata/hotels.csv"
	answer = `  qC: x=Paris x1=70 x2=h1
  qG: y1=70 y2=h1
`
	scc = "coordinating set (2 of 4 queries), 3 database queries:\n" + answer
)

func TestRun(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-queries testdata/band.eq " + tables, scc},
		{"-queries testdata/band.json " + tables, scc},
		{"-queries testdata/band.eq -brute " + tables,
			"coordinating set (2 of 4 queries), 3 database queries:\n" + answer},
		{"-queries testdata/band.eq -explain " + tables, `components processed (reverse topological order):
  1. {qC, qG}: grounded (candidate set of 2)
     query: F(q0.x1, q0.x), H(q1.y2, q0.x), F(q0.x1, Paris), H(q1.y2, Paris)
  2. {qJ}: no tuple
     query: F(q0.x1, q0.x), H(q1.y2, q0.x), F(q0.x1, Paris), H(q1.y2, Paris), F(q0.x1, Athens), H(q2.z2, Athens)
  3. {qW}: no tuple
     query: F(q0.x1, q0.x), H(q1.y2, q0.x), F(q0.x1, Paris), H(q1.y2, Paris), F(q0.x1, Athens), H(q3.w2, Athens), F(q0.x1, Madrid), H(q3.w2, Madrid)

` + scc},
		{"-queries testdata/band.eq -dot " + tables, `digraph "coordination" {
  n0 [label="qC"];
  n1 [label="qG"];
  n2 [label="qJ"];
  n3 [label="qW"];
  n0 -> n1;
  n1 -> n0;
  n2 -> n0;
  n2 -> n1;
  n3 -> n0;
  n3 -> n2;
}
`},
		// With the one hotel in Rome, where no flight goes, no body is answered.
		{"-queries testdata/band.eq -table F=testdata/flights.csv -table H=testdata/rome.csv",
			"no coordinating set exists\n"},
	} {
		var out strings.Builder
		if err := run(strings.Fields(tc.args), &out); err != nil {
			t.Errorf("%s: %v", tc.args, err)
		} else if out.String() != tc.want {
			t.Errorf("%s:\n%s\nwant:\n%s", tc.args, out.String(), tc.want)
		}
	}
}

func TestRunRefuses(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{tables, "-queries is required"},
		{"-queries testdata/missing.eq", "no such file"},
		{"-queries testdata/band.eq -table F", `bad -table "F"`},
		{"-queries testdata/band.eq -table F=testdata/flights.csv", "H"},
	} {
		err := run(strings.Fields(tc.args), new(strings.Builder))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

// TestMainRunsTheProgram runs main as the binary does: os.Args in, the answer on stdout.
func TestMainRunsTheProgram(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func(args []string, out *os.File) { os.Args, os.Stdout = args, out; f.Close() }(os.Args, os.Stdout)
	os.Args, os.Stdout = append([]string{"coordctl", "-queries", "testdata/band.eq"}, strings.Fields(tables)...), f
	main()
	if out, _ := os.ReadFile(path); !strings.Contains(string(out), "qC") {
		t.Errorf("%v printed:\n%s\nwant a line with %q", os.Args, out, "qC")
	}
}
