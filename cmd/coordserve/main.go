// Command coordserve is the coordination service: it serves the
// HTTP/JSON coordination API (internal/server) — and, with
// -listen-binary or in a cluster, the binary wire protocol — over one
// shared store: the batch endpoint, streaming sessions, /healthz and
// /metrics, with a graceful drain on SIGINT/SIGTERM. It serves and does
// nothing else; load comes from the repository's one benchmark, `bash
// bench/run.sh --workload W`, which boots this same wiring and checks
// every answer it gets.
//
// Usage:
//
//	coordserve -listen :8080 [-listen-binary :9090] [-rows N] [-shards K] [-workers N]
//	coordserve -listen :8080 -data-dir DIR [-fsync always|never|50ms]
//	coordserve -listen :8080 -cluster-node a -cluster-peers a=:9101,b=:9102,c=:9103
//	coordserve -listen :8080 -tenants policy.json
//
// The store is the canonical workload table (workload.NewStore): -rows
// rows hash-partitioned across -shards shards, so each batch request
// routes to the single shard its bodies pin. With -data-dir the store
// is durable (internal/persist): a fresh directory is seeded with that
// table and snapshotted, a used one is recovered as it is and -rows is
// ignored.
//
// The serving bounds and the degraded-mode probe interval
// (internal/server) and the log's segment and compaction sizes
// (internal/persist) are constants, not flags.
//
// -cluster-peers turns N coordserve processes into one logical
// service: every node is started with the same membership list
// (name=binary-address pairs) and its own -cluster-node name, each
// holds a full replica of the data (same -rows/-shards), and a
// consistent-hash ring over the names (64 virtual points a member,
// cluster.DefaultVNodes) places sessions and single-owner batch
// requests. A client may talk to any node: a request landing on the
// wrong node forwards once over the binary protocol. The binary listener defaults to the node's own membership
// address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// config is what the flags say; parseFlags fills it and run serves it.
type config struct {
	listen, listenBinary  string
	rows, shards, workers int
	dataDir, fsync        string
	clusterNode           string
	clusterPeers          string
	tenants               string
	headerTimeout         time.Duration // no flag: tests shorten readHeaderTimeout; zero is the constant
}

// parseFlags reads the command line. Everything it refuses is a usage
// error, refused before a listener opens or a file is touched; usage
// and flag errors are printed to stderr by the flag set.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("coordserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.listen, "listen", "", "serve the HTTP coordination API on this address (required)")
	fs.StringVar(&c.listenBinary, "listen-binary", "", "also serve the binary wire protocol on this address")
	fs.IntVar(&c.rows, "rows", 20000, "rows in the shared queried table")
	fs.IntVar(&c.shards, "shards", 1, "hash-partition the queried table across this many shards (1 = one shared instance)")
	fs.IntVar(&c.workers, "workers", runtime.GOMAXPROCS(0), "engine worker-pool size")
	fs.StringVar(&c.dataDir, "data-dir", "", "durable data directory (snapshot + WAL); empty = in-memory only")
	fs.StringVar(&c.fsync, "fsync", "always", "WAL sync policy: always, never, or a flush interval like 50ms")
	fs.StringVar(&c.clusterNode, "cluster-node", "", "this node's name in the cluster membership (requires -cluster-peers)")
	fs.StringVar(&c.clusterPeers, "cluster-peers", "", "full cluster membership as name=host:port binary-protocol entries, comma-separated; empty = standalone")
	fs.StringVar(&c.tenants, "tenants", "", "per-tenant admission policy JSON file; empty = no admission control")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case c.listen == "":
		err = errors.New("-listen is required")
	case c.rows <= 0 || c.shards <= 0 || c.workers <= 0:
		err = errors.New("-rows, -shards and -workers must be positive")
	case (c.clusterNode == "") != (c.clusterPeers == ""):
		err = errors.New("-cluster-node and -cluster-peers go together")
	}
	if err != nil {
		fmt.Fprintf(stderr, "coordserve: %v\n", err)
		fs.Usage()
	}
	return c, err
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "coordserve: %v\n", err)
		os.Exit(1)
	}
}
