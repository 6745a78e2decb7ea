package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"entangled/internal/admission"
	"entangled/internal/client"
	"entangled/internal/cluster"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/persist"
	"entangled/internal/server"
	"entangled/internal/workload"
)

// run boots the coordination service cfg describes and serves until ctx
// is cancelled, then drains gracefully: the HTTP server stops accepting
// and waits for in-flight connections, the batch queue serves what it
// admitted, and every session's mailbox drains before its goroutine
// exits (events are atomic, so a drain never leaves partial
// coordination state). With -data-dir the drain additionally syncs and
// closes the node's one log — store mutations and session events alike
// — so an interrupted server's data directory is complete on stable
// storage.
//
// Both listeners are bound before anything else is opened or started,
// so an address in use is reported with nothing to undo, and the
// addresses printed are the bound ones (":0" shows its port).
func run(ctx context.Context, cfg config, stdout io.Writer) error {
	policy, err := persist.ParseSyncPolicy(cfg.fsync)
	if err != nil {
		return err
	}
	var nodes []cluster.Node
	binaryAddr := cfg.listenBinary
	if cfg.clusterPeers != "" {
		if nodes, err = cluster.ParsePeers(cfg.clusterPeers); err != nil {
			return err
		}
		// Forwards and cluster clients ride the binary protocol, so a
		// cluster node always listens on its membership address.
		for _, n := range nodes {
			if n.Name == cfg.clusterNode && binaryAddr == "" {
				binaryAddr = n.Addr
			}
		}
	}
	hln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return fmt.Errorf("HTTP listener: %w", err)
	}
	defer hln.Close()
	var bln net.Listener
	if binaryAddr != "" {
		if bln, err = net.Listen("tcp", binaryAddr); err != nil {
			return fmt.Errorf("binary listener: %w", err)
		}
		defer bln.Close()
	}

	store, backend, err := openStore(cfg, policy, stdout)
	if err != nil {
		return err
	}
	if backend != nil {
		// Closed — final sync included — after the server has drained.
		defer backend.Close()
	}
	var adm *admission.Controller
	if cfg.tenants != "" {
		ac, err := admission.LoadConfig(cfg.tenants)
		if err != nil {
			return err
		}
		adm = admission.NewController(ac)
	}
	var cr *cluster.Router
	if nodes != nil {
		// The placement the cluster partitions work by mirrors the
		// store's own hash partitioning when it is sharded, and the
		// canonical workload contract otherwise (every node holds a full
		// replica, so placement only steers work, never data
		// availability).
		placement := workload.Placement()
		if sh, ok := store.(*db.ShardedInstance); ok {
			placement = sh.HashColumns()
		}
		cr, err = cluster.New(cluster.Config{Self: cfg.clusterNode, Nodes: nodes, VNodes: cfg.clusterVNodes}, cluster.Options{
			Placement: placement,
			Dial:      func(addr string) cluster.PeerConn { return client.DialPeer(addr) },
		})
		if err != nil {
			return err
		}
		defer cr.Close()
	}
	e := engine.New(store, engine.Options{Workers: cfg.workers})
	srv, err := server.New(e, server.Options{Persist: backend, ProbeInterval: cfg.probe, DispatchTimeout: cfg.dispatchTimeout, Cluster: cr, Admission: adm})
	if err != nil {
		return fmt.Errorf("recovering sessions: %w", err)
	}
	if adm != nil {
		fmt.Fprintf(stdout, "admission: per-tenant quotas active (GET /v1/tenants for the ledger)\n")
	}
	if cr != nil {
		st := cr.Status()
		fmt.Fprintf(stdout, "cluster: node %s of %d members (%s), forwarding over the binary protocol\n",
			st.Self, len(st.Nodes), st.Version)
	}
	if backend != nil {
		reportDurable(stdout, backend)
	}

	// A Serve returns when the drain closes its listener (nil, or
	// http.ErrServerClosed) or when the listener fails, which ends the
	// service: one result each on errc.
	errc := make(chan error, 2)
	hs := &http.Server{Handler: srv}
	serving := 1
	go func() { errc <- hs.Serve(hln) }()
	fmt.Fprintf(stdout, "coordination service listening on %s (%s)\n", hln.Addr(), srv)
	fmt.Fprintf(stdout, "  POST /v1/coordinate · POST /v1/sessions · GET /healthz · GET /metrics\n")
	if bln != nil {
		serving++
		go func() { errc <- srv.ServeWire(bln) }()
		fmt.Fprintf(stdout, "binary wire protocol listening on %s (point clients at tcp://%s)\n", bln.Addr(), bln.Addr())
	}

	var failed error
	select {
	case failed = <-errc:
		serving--
	case <-ctx.Done():
		fmt.Fprintln(stdout, "\ndraining: closing listener, finishing admitted work ...")
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	if err := hs.Shutdown(shutCtx); err != nil && failed == nil {
		failed = fmt.Errorf("shutdown: %w", err)
	}
	srv.Close()
	for ; serving > 0; serving-- {
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) && failed == nil {
			failed = err
		}
	}
	if failed != nil {
		return failed
	}
	reportPlans(stdout, store)
	fmt.Fprintln(stdout, "drained cleanly")
	return nil
}

// openStore builds what the service coordinates over: the canonical
// workload table in memory, or with -data-dir the durable backend —
// opened (or created), its snapshot and WAL replayed into the store, so
// every accepted mutation and admitted session event is journaled
// before it is acknowledged. A fresh directory is seeded with the
// canonical table and snapshotted immediately, so later restarts
// recover from the compact form; a used one is recovered as it is and
// -rows is ignored (the data directory owns the data). The caller
// closes the backend.
func openStore(cfg config, policy persist.SyncPolicy, stdout io.Writer) (db.Store, *persist.Backend, error) {
	if cfg.dataDir == "" {
		fmt.Fprintf(stdout, "serving a %d-row table across %d shard(s), %d workers\n", cfg.rows, cfg.shards, cfg.workers)
		return workload.NewStore(cfg.shards, cfg.rows, 0), nil, nil
	}
	backend, err := persist.Open(cfg.dataDir, persist.Options{Shards: cfg.shards, Sync: policy})
	if err != nil {
		return nil, nil, err
	}
	if !backend.Fresh() {
		fmt.Fprintf(stdout, "recovering %s: %d shard(s), fsync=%s\n", cfg.dataDir, backend.Shards(), policy)
		return backend, backend, nil
	}
	fmt.Fprintf(stdout, "initialising %s: %d-row table across %d shard(s), fsync=%s\n",
		cfg.dataDir, cfg.rows, backend.Shards(), policy)
	if err := seed(backend, cfg.rows); err != nil {
		backend.Close()
		return nil, nil, err
	}
	return backend, backend, nil
}

// seed fills a fresh data directory with the canonical table and
// snapshots it.
func seed(backend *persist.Backend, rows int) error {
	if err := db.ApplyAll(backend, workload.UserTableMutations(rows)); err != nil {
		return fmt.Errorf("seeding data directory: %w", err)
	}
	if err := backend.Compact(); err != nil {
		return fmt.Errorf("snapshotting seed: %w", err)
	}
	return nil
}

// reportDurable prints what the data directory held when it was opened.
func reportDurable(stdout io.Writer, backend *persist.Backend) {
	if backend.Fresh() {
		// Nothing was recovered (the directory was just created and
		// seeded); report what is on disk now instead.
		mt := backend.Metrics()
		fmt.Fprintf(stdout, "durable: %s (fresh; snapshot seq %d: %d mutations on disk)\n",
			backend.Dir(), mt.SnapshotSeq, mt.StoreAppends)
		return
	}
	rec := backend.RecoveryStats()
	fmt.Fprintf(stdout, "durable: %s (snapshot seq %d: %d mutations; WAL: %d mutations in %d segment(s); sessions: %d with %d events)\n",
		backend.Dir(), rec.SnapshotSeq, rec.SnapshotFrames, rec.WALFrames, rec.WALSegments, rec.Sessions, rec.SessionEvents)
	if rec.TornTail || rec.SessionTornTails > 0 {
		fmt.Fprintf(stdout, "durable: truncated torn tail(s): store=%v sessions=%d\n", rec.TornTail, rec.SessionTornTails)
	}
}

// reportPlans prints the store's plan-cache counters: every worker of
// the pool evaluates through one shared cache, so after the first few
// requests the hit rate should be ~100% (each body shape compiles
// once per schema version, not once per request).
func reportPlans(stdout io.Writer, store db.Store) {
	st, ok := db.AggregatePlanStats(store)
	if !ok {
		return
	}
	total := st.Hits + st.Misses
	if total == 0 {
		return
	}
	fmt.Fprintf(stdout, "plan cache: %d plans served %d queries (%.1f%% hit rate)\n",
		st.Entries, total, 100*float64(st.Hits)/float64(total))
}
