package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"entangled/internal/client"
	"entangled/internal/engine"
	"entangled/internal/workload"
)

// output is run's stdout: written by the serving goroutine, read by the
// test, which waits on wrote instead of sleeping.
type output struct {
	mu    sync.Mutex
	b     strings.Builder
	wrote chan struct{}
}

func newOutput() *output { return &output{wrote: make(chan struct{}, 1)} }

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	o.b.Write(p)
	o.mu.Unlock()
	select {
	case o.wrote <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.String()
}

// served is one run in flight.
type served struct {
	out    *output
	cancel context.CancelFunc
	done   chan error
}

// serve starts run(cfg) and waits until it has printed every pattern,
// returning the first submatch of each: the addresses it bound.
func serve(t *testing.T, cfg config, patterns ...*regexp.Regexp) (*served, []string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &served{out: newOutput(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- run(ctx, cfg, s.out) }()
	timeout := time.After(30 * time.Second)
	for {
		text := s.out.String()
		var found []string
		for _, p := range patterns {
			if m := p.FindStringSubmatch(text); m != nil {
				found = append(found, m[1])
			}
		}
		if len(found) == len(patterns) {
			return s, found
		}
		select {
		case <-s.out.wrote:
		case err := <-s.done:
			cancel()
			t.Fatalf("run returned %v before serving; it printed:\n%s", err, text)
		case <-timeout:
			cancel()
			t.Fatalf("run never printed %v; it printed:\n%s", patterns, text)
		}
	}
}

// drain cancels the run and checks it reported a clean drain.
func (s *served) drain(t *testing.T) string {
	t.Helper()
	s.cancel()
	select {
	case err := <-s.done:
		if err != nil {
			t.Fatalf("run: %v\n%s", err, s.out)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not drain; it printed:\n%s", s.out)
	}
	text := s.out.String()
	if !strings.HasSuffix(text, "drained cleanly\n") {
		t.Fatalf("output does not end with a clean drain:\n%s", text)
	}
	return text
}

var (
	httpAddr   = regexp.MustCompile(`coordination service listening on (127\.0\.0\.1:[1-9][0-9]*) `)
	binaryAddr = regexp.MustCompile(`binary wire protocol listening on (127\.0\.0\.1:[1-9][0-9]*) `)
)

// TestServeBothProtocols boots the binary's serve path on ports the
// kernel picks, and checks that what it announces is what it serves: a
// batch over each protocol answers exactly as the engine does in
// process on an identically built store, /healthz answers, and a
// cancelled context drains everything the run started.
func TestServeBothProtocols(t *testing.T) {
	const shards, rows = 4, 64
	baseline := runtime.NumGoroutine()
	cfg := config{listen: "127.0.0.1:0", listenBinary: "127.0.0.1:0", rows: rows, shards: shards, workers: 2, fsync: "always"}
	s, addrs := serve(t, cfg, httpAddr, binaryAddr)

	ctx := context.Background()
	var batch []client.Request
	var local []engine.Request
	for i := 0; i < 16; i++ {
		qs := workload.ListQueriesAt(3+i%6, i)
		batch = append(batch, client.Request{ID: fmt.Sprint("r", i), Queries: qs})
		local = append(local, engine.Request{ID: fmt.Sprint("r", i), Queries: qs})
	}
	want := engine.New(workload.NewStore(shards, rows, 0), engine.Options{Workers: 2}).CoordinateMany(ctx, local)

	hc := &http.Client{Transport: &http.Transport{}}
	for _, url := range []string{"http://" + addrs[0], "tcp://" + addrs[1]} {
		c, err := client.New(url, client.Options{HTTPClient: hc})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.CoordinateBatch(ctx, batch)
		if err != nil || len(got) != len(want) {
			t.Fatalf("%s: %d responses, err=%v", url, len(got), err)
		}
		for i, r := range got {
			if r.Err != nil || want[i].Err != nil || r.ID != want[i].ID || r.Result.Size() == 0 || !reflect.DeepEqual(r.Result, want[i].Result) {
				t.Fatalf("%s: request %d answered %+v (err %v), in process %+v (err %v)", url, i, r.Result, r.Err, want[i].Result, want[i].Err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := hc.Get("http://" + addrs[0] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %s", resp.Status)
	}
	hc.CloseIdleConnections()

	s.drain(t)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond) // exited goroutines are reaped asynchronously
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine leak after drain: %d > %d at start", n, baseline)
	}
}

// TestServeDurableInitialisesThenRecovers runs the -data-dir path twice
// over one directory: the first run seeds it, the second recovers it.
func TestServeDurableInitialisesThenRecovers(t *testing.T) {
	cfg := config{listen: "127.0.0.1:0", rows: 32, shards: 2, workers: 1, dataDir: t.TempDir(), fsync: "never"}
	for _, want := range []string{"initialising " + cfg.dataDir, "recovering " + cfg.dataDir} {
		s, _ := serve(t, cfg, httpAddr)
		if text := s.drain(t); !strings.HasPrefix(text, want) {
			t.Fatalf("want a run that starts by %q, got:\n%s", want, text)
		}
	}
}

// TestServeClusterNodeWithTenants boots a one-node cluster with a
// tenant policy: the node listens for forwards on its membership
// address, announces both, and drains cleanly.
func TestServeClusterNodeWithTenants(t *testing.T) {
	policy := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(policy, []byte(`{"default": {"rate": 1000}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{listen: "127.0.0.1:0", rows: 8, shards: 2, workers: 1, fsync: "always",
		clusterNode: "a", clusterPeers: "a=127.0.0.1:0", tenants: policy}
	s, _ := serve(t, cfg, httpAddr, binaryAddr)
	text := s.drain(t)
	for _, want := range []string{"admission: per-tenant quotas active", "cluster: node a of 1 members"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
}

// TestRefusedBootLeavesTheDataDirUnseeded: a boot refused for its
// tenant policy or its cluster membership (a -cluster-node missing from
// -cluster-peers, a name listed twice) writes nothing under -data-dir, so the corrected boot initialises the
// directory with its own -rows instead of recovering a stray seed.
func TestRefusedBootLeavesTheDataDirUnseeded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "d")
	for _, bad := range []config{
		{tenants: filepath.Join(t.TempDir(), "missing.json")},
		{clusterNode: "z", clusterPeers: "a=127.0.0.1:1,b=127.0.0.1:2"},
		{clusterNode: "a", clusterPeers: "a=127.0.0.1:1,a=127.0.0.1:2"},
	} {
		bad.listen, bad.rows, bad.shards, bad.workers, bad.dataDir, bad.fsync = "127.0.0.1:0", 8, 1, 1, dir, "never"
		if err := run(context.Background(), bad, io.Discard); err == nil {
			t.Fatalf("%+v booted", bad)
		}
		if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
			t.Fatalf("%+v: a refused boot left %d entries in the data directory", bad, len(entries))
		}
	}
	s, _ := serve(t, config{listen: "127.0.0.1:0", rows: 8, shards: 1, workers: 1, dataDir: dir, fsync: "never"}, httpAddr)
	if text := s.drain(t); !strings.HasPrefix(text, "initialising "+dir) {
		t.Fatalf("the corrected boot does not initialise %s:\n%s", dir, text)
	}
}

// TestServeBindFailure checks that an address in use is an error from
// run, reported before it opens anything.
func TestServeBindFailure(t *testing.T) {
	s, addrs := serve(t, config{listen: "127.0.0.1:0", rows: 8, shards: 1, workers: 1, fsync: "always"}, httpAddr)
	defer s.drain(t)
	dir := t.TempDir() + "/never-created"
	out := newOutput()
	err := run(context.Background(), config{listen: "127.0.0.1:0", listenBinary: addrs[0], rows: 8, shards: 1, workers: 1, dataDir: dir, fsync: "always"}, out)
	if err == nil || !strings.Contains(err.Error(), "binary listener") {
		t.Fatalf("run on a taken address: err = %v", err)
	}
	if out.String() != "" {
		t.Fatalf("run announced something before failing: %q", out.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("run touched the data directory before failing: %v", err)
	}
}

// TestServeDropsHalfSentHeaders: an HTTP connection that sends part of
// a request's headers and then nothing is closed once the header
// deadline passes, and the run still drains cleanly.
func TestServeDropsHalfSentHeaders(t *testing.T) {
	const deadline = 100 * time.Millisecond
	s, addrs := serve(t, config{listen: "127.0.0.1:0", rows: 8, shards: 1, workers: 1, fsync: "always", headerTimeout: deadline}, httpAddr)
	defer s.drain(t)
	c, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if got, err := io.ReadAll(c); err != nil {
		t.Fatalf("half-sent headers: read %q, %v; want the connection closed", got, err)
	}
	if waited := time.Since(start); waited < deadline {
		t.Fatalf("closed after %v, before the %v deadline", waited, deadline)
	}
}
