package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseFlags pins what the command line accepts: serve flags only,
// range checks on the three sizes, the cluster pair together, and no
// stray arguments — each refusal with usage, before run is reached.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string // substring of what stderr shows; "" = accepted
	}{
		{"-listen :8080", ""},
		{"-listen :8080 -listen-binary :9090 -rows 100 -shards 4 -workers 2", ""},
		{"-listen :8080 -data-dir /tmp/d -fsync 50ms -tenants p.json", ""},
		{"-listen :8080 -cluster-node a -cluster-peers a=:9101,b=:9102", ""},
		{"", "-listen is required"},
		{"-rows 100", "-listen is required"},
		{"-listen :8080 -rows 0", "must be positive"},
		{"-listen :8080 -shards 0", "must be positive"},
		{"-listen :8080 -workers -1", "must be positive"},
		{"-listen :8080 -cluster-node a", "go together"},
		{"-listen :8080 -cluster-peers a=:9101", "go together"},
		{"-listen :8080 extra", `unexpected argument "extra"`},
		// The load driver's flags are gone with it.
		{"-listen :8080 -queries 1", "flag provided but not defined: -queries"},
		{"-listen :8080 -latency 1ms", "flag provided but not defined: -latency"},
		{"-target http://localhost:8080 -compare", "flag provided but not defined: -target"},
		{"-stream", "flag provided but not defined: -stream"},
		// So are the settings only tests changed.
		{"-listen :8080 -dispatch-timeout 5s", "flag provided but not defined: -dispatch-timeout"},
		{"-listen :8080 -cluster-vnodes 16", "flag provided but not defined: -cluster-vnodes"},
		{"-listen :8080 -data-dir /tmp/d -probe 1s", "flag provided but not defined: -probe"},
	} {
		var stderr strings.Builder
		cfg, err := parseFlags(strings.Fields(tc.args), &stderr)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q: refused: %v", tc.args, err)
		case tc.wantErr == "":
			if cfg.listen != ":8080" || stderr.Len() != 0 {
				t.Errorf("%q: parsed to %+v, stderr %q", tc.args, cfg, stderr.String())
			}
		case err == nil:
			t.Errorf("%q: accepted as %+v, want an error about %q", tc.args, cfg, tc.wantErr)
		case !strings.Contains(stderr.String(), tc.wantErr) || !strings.Contains(stderr.String(), "Usage of coordserve"):
			t.Errorf("%q: stderr lacks %q or the usage:\n%s", tc.args, tc.wantErr, stderr.String())
		}
	}

	var usage strings.Builder
	if _, err := parseFlags([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	if n := strings.Count(usage.String(), "\n  -"); n != 10 {
		t.Errorf("-h lists %d flags, want 10:\n%s", n, usage.String())
	}
	if cfg, err := parseFlags(nil, io.Discard); err == nil {
		t.Errorf("no arguments: accepted as %+v", cfg)
	}
}

// TestMainRunsTheProgram runs main as the binary does: -h prints the
// usage on stderr and returns.
func TestMainRunsTheProgram(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func(args []string, out *os.File) { os.Args, os.Stderr = args, out; f.Close() }(os.Args, os.Stderr)
	os.Args, os.Stderr = []string{"coordserve", "-h"}, f
	main()
	if out, _ := os.ReadFile(path); !strings.Contains(string(out), "-cluster-peers") {
		t.Errorf("%v printed:\n%s\nwant a line with %q", os.Args, out, "-cluster-peers")
	}
}
