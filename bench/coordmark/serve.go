package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"entangled/internal/admission"
	"entangled/internal/client"
	"entangled/internal/cluster"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/persist"
	"entangled/internal/server"
	"entangled/internal/stream"
	"entangled/internal/workload"
)

// nodeConfig says how one in-process coordination server is booted. It
// is the wiring `coordserve -listen` and examples/cluster use: a store,
// an engine over it, a server over the engine, loopback TCP listeners.
type nodeConfig struct {
	shards, rows int
	http         bool // serve HTTP/JSON as well as the binary protocol
	// dataDir, when set, makes the node durable: the store is a
	// persist.Backend under it, opened through fs with fsync=always.
	dataDir string
	fs      *crashFS
	// membership, when set, makes the node the member named self of a
	// static cluster; wireLn must then be the listener on the address
	// the membership gives for self.
	membership []cluster.Node
	self       string
	wireLn     net.Listener
	admission  *admission.Config
	tr         *tracer // nil: no seams installed
}

// countingListener counts accepted connections, which is how the
// benchmark sees client redials from outside the client package.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// node is one booted server with everything needed to drive it, read
// its public snapshots, and stop it.
type node struct {
	store   db.Store // what the engine evaluates against (seamed when traced)
	backend *persist.Backend
	engine  *engine.Engine
	srv     *server.Server
	router  *cluster.Router
	adm     *admission.Controller
	hs      *http.Server
	httpLn  *countingListener
	wireLn  *countingListener
	httpURL string
	wireURL string
	// snapshot is how long the seed snapshot (Backend.Compact) took.
	snapshot time.Duration
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func bootNode(cfg nodeConfig) (n *node, err error) {
	n = &node{}
	defer func() {
		if err != nil {
			n.stop()
		}
	}()
	var store db.Store
	if cfg.dataDir != "" {
		b, err := persist.Open(cfg.dataDir, persist.Options{Shards: cfg.shards, Sync: persist.SyncAlways, FS: cfg.fs})
		if err != nil {
			return nil, err
		}
		n.backend = b
		if b.Fresh() {
			if n.snapshot, err = seedDurable(b, cfg.rows); err != nil {
				return nil, err
			}
		}
		store = b
	} else {
		store = workload.NewStore(cfg.shards, cfg.rows, 0)
	}
	n.store = store
	sessOpts := stream.Options{}
	if cfg.tr != nil {
		n.store = &timedStore{inner: store, t: cfg.tr}
		sessOpts.OnUpdate = cfg.tr.onUpdate
	}
	if cfg.membership != nil {
		placement := workload.Placement()
		if sh, ok := store.(*db.ShardedInstance); ok {
			placement = sh.HashColumns()
		}
		n.router, err = cluster.New(cluster.Config{Self: cfg.self, Nodes: cfg.membership}, cluster.Options{
			Placement: placement,
			Dial:      func(addr string) cluster.PeerConn { return client.DialPeer(addr) },
		})
		if err != nil {
			return nil, err
		}
	}
	if cfg.admission != nil {
		n.adm = admission.NewController(*cfg.admission)
	}
	n.engine = engine.New(n.store, engine.Options{})
	n.srv, err = server.New(n.engine, server.Options{Persist: n.backend, Cluster: n.router, Admission: n.adm, Session: sessOpts})
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	wl := cfg.wireLn
	if wl == nil {
		if wl, err = listenLoopback(); err != nil {
			return nil, err
		}
	}
	n.wireLn = &countingListener{Listener: wl}
	n.wireURL = "tcp://" + wl.Addr().String()
	go n.srv.ServeWire(n.wireLn)
	if cfg.http {
		hl, err := listenLoopback()
		if err != nil {
			return nil, err
		}
		n.httpLn = &countingListener{Listener: hl}
		n.httpURL = "http://" + hl.Addr().String()
		n.hs = &http.Server{Handler: n.srv}
		go n.hs.Serve(n.httpLn)
	}
	return n, nil
}

// seedDurable fills a fresh data directory the way coordserve does
// (canonical table, then a snapshot) and then applies a skewed mutation
// stream, so the WAL that recovery replays is not empty.
func seedDurable(b *persist.Backend, rows int) (snapshot time.Duration, err error) {
	if err := db.ApplyAll(b, workload.UserTableMutations(rows)); err != nil {
		return 0, fmt.Errorf("seeding data directory: %w", err)
	}
	start := time.Now()
	if err := b.Compact(); err != nil {
		return 0, fmt.Errorf("snapshotting seed: %w", err)
	}
	snapshot = time.Since(start)
	skew := workload.SkewedMutations(workload.SkewOptions{Relations: 3, MaxRows: durableSkewRows, Seed: shapeSeed})
	if err := db.ApplyAll(b, skew); err != nil {
		return 0, fmt.Errorf("applying skewed mutations: %w", err)
	}
	return snapshot, nil
}

// stop drains and releases the node; safe on a partially booted one.
func (n *node) stop() {
	if n.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		n.hs.Shutdown(ctx)
		cancel()
	}
	if n.srv != nil {
		n.srv.Close()
	}
	if n.router != nil {
		n.router.Close()
	}
	if n.backend != nil {
		n.backend.Close()
	}
}

// newHTTPClient returns an http.Client that keeps exactly one
// connection to the server, so a closed-loop caller is one connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
	}}
}

// closeHTTPClient drops the client's idle connection.
func closeHTTPClient(hc *http.Client) {
	if t, ok := hc.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}
