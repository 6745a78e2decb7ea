package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"entangled/internal/admission"
	"entangled/internal/api"
	"entangled/internal/cluster"
	"entangled/internal/engine"
	"entangled/internal/persist"
	"entangled/internal/stream"
	"entangled/internal/wire"
)

// The serving bounds.
const (
	// maxBatch caps the number of requests accepted in one
	// POST /v1/coordinate call.
	maxBatch = 1024
	// queueDepth bounds each tenant's queue on the batch path. A full
	// queue rejects the request with the typed code "overloaded",
	// reported inline in its Response (the call itself stays 200 so one
	// hot spot cannot fail a whole batch; single-request clients get the
	// typed error from Coordinate).
	queueDepth = 4096
	// mailboxSize bounds how many events may wait for a session's turn
	// behind the one it is serving; one more answers 429 mailbox_full.
	mailboxSize = 64
	// idleTimeout evicts sessions with no client activity for this long.
	idleTimeout = 5 * time.Minute
	// dispatchTimeout bounds each batch request: past it, every
	// remaining store query of the request fails with a deadline error
	// instead of holding a worker on a stalled store.
	dispatchTimeout = 30 * time.Second
	// probeInterval is how often the server probes a degraded backend to
	// lift degraded mode (flush the pending log payloads, resume writes).
	probeInterval = 500 * time.Millisecond
)

// Options configures a Server.
type Options struct {
	// Session is the base configuration for sessions the registry
	// creates; its ParkUnsafe is overridden per create request.
	Session stream.Options
	// Persist, when non-nil, makes sessions durable: every admitted (or
	// parked) event is journaled to the backend's log before it is
	// acked, and New rebuilds the sessions the log holds by replaying
	// their events. The server does not own the backend's lifecycle —
	// the caller opens it (replaying the log) and closes it after Close.
	Persist *persist.Backend
	// Admission, when non-nil, turns on tenant-aware admission: every
	// request is attributed to the tenant named by the HTTP X-Tenant
	// header or the binary tenant envelope (Default when absent), gated
	// against the tenant's policy (token-bucket rate, in-flight cap,
	// rolling DBQueries budget), queued for the weighted-fair
	// workers, and metered by exact Result.DBQueries spend. Rejections
	// are the typed, fate-known "throttled" error carrying a
	// retry-after hint. Nil (the default) disables admission entirely —
	// no gating, no tenant queues, no per-tenant metrics — so an
	// unconfigured server behaves exactly as before the layer existed.
	Admission *admission.Controller
	// Cluster, when non-nil, makes this node one member of a coordserve
	// cluster: session-scoped requests it does not own forward to the
	// owning peer (terminally — a forwarded request that still misses
	// answers route_moved), batches scatter-gather across owners, and
	// the cluster view appears on /v1/cluster, /healthz and /metrics.
	// The server does not own the router's lifecycle — the caller builds
	// it (dialing peers) and closes it after Close. Nil runs standalone.
	Cluster *cluster.Router

	// probeInterval, set by tests, replaces the constant when non-zero;
	// negative runs no probe loop (the test drives Backend.Probe).
	probeInterval time.Duration
}

// Server exposes an engine.Engine over HTTP/JSON and the binary wire
// protocol: the batch coordination operation, the streaming-session
// resource, and the operational surface — every operation an entry of
// the table in ops.go over its row of internal/wire's, which is where
// the HTTP routes are spelled.
// It implements http.Handler; serve it with any http.Server (and
// ServeWire for binary listeners) and call Close on shutdown to drain
// admitted work.
type Server struct {
	e        *engine.Engine
	opts     Options
	mux      *http.ServeMux
	adm      *admission.Controller // nil: admission off
	batch    *batcher
	reg      *registry
	met      *metrics
	push     *pushHub
	recovery api.RecoveryStatus
	closing  sync.Once
	closed   chan struct{}
	// probeDone is closed when the degraded-mode probe loop exits; nil
	// when the server runs without one (no backend, or disabled).
	probeDone chan struct{}

	wireMu    sync.Mutex
	wireLs    map[net.Listener]struct{}
	wireConns map[*wireConn]struct{}

	writeTimeout     time.Duration // writeTimeout, unless a test shortens it before serving
	handshakeTimeout time.Duration // handshakeTimeout, likewise
}

// New builds a server over the engine. The server owns the batch
// workers and a session janitor from this point on; Close releases
// them. Sessions own no goroutine: an event is served by the goroutine
// that posts it, in the session's turn. With Options.Persist set, New
// also rebuilds every session the backend's log holds — replaying its
// events through a fresh incremental session — and the error return is
// recovery failing (it is always nil without persistence).
func New(e *engine.Engine, opts Options) (*Server, error) {
	if opts.probeInterval == 0 {
		opts.probeInterval = probeInterval
	}
	s := &Server{
		e:         e,
		opts:      opts,
		mux:       http.NewServeMux(),
		met:       newMetrics(),
		push:      newPushHub(),
		closed:    make(chan struct{}),
		wireLs:    make(map[net.Listener]struct{}),
		wireConns: make(map[*wireConn]struct{}),
	}
	s.writeTimeout, s.handshakeTimeout = writeTimeout, handshakeTimeout
	s.adm = opts.Admission
	// Tenant weights exist only when admission is on: an unconfigured
	// server runs one anonymous queue with weight 1, a plain FIFO.
	var weight func(admission.Tenant) int
	if s.adm != nil {
		weight = s.adm.Weight
	}
	s.batch = newBatcher(e, func() {
		s.met.coordBatches.Add(1)
	}, weight)
	newSession := func(park bool) *stream.Session {
		so := opts.Session
		so.ParkUnsafe = park
		return e.NewSession(so)
	}
	// Parked arrivals a departure admitted become push notifications on
	// subscribed binary connections; dropped sessions drop their
	// undelivered backlog.
	s.reg = newRegistry(newSession, s.push.admitted, s.push.dropSession)
	if opts.Persist != nil {
		s.reg.newJournal = func(name string, park bool) (eventJournal, error) {
			return opts.Persist.CreateSessionJournal(name, park)
		}
		// Eviction pauses while the backend is degraded: a drop needs
		// the log, and a lost drop would resurrect the session as a
		// ghost on the next restart. Idle sessions wait out the outage
		// instead.
		s.reg.skipEvict = opts.Persist.Degraded
	}
	if opts.Cluster != nil {
		// A cluster node generates only session names it owns, so an
		// auto-named create lands correctly placed on whichever node
		// served it (ownership partitions the generated namespace, so
		// nodes cannot collide either).
		s.reg.nameOK = opts.Cluster.OwnsLocally
	}
	if err := s.recoverSessions(newSession); err != nil {
		s.Close()
		return nil, err
	}
	if opts.Persist != nil && opts.probeInterval > 0 {
		s.probeDone = make(chan struct{})
		go s.probeLoop(opts.probeInterval)
	}

	for _, o := range ops {
		if r := o.route(); r.Method != "" {
			s.mux.HandleFunc(r.Method+" "+r.Path, func(w http.ResponseWriter, r *http.Request) { o.serveHTTP(s, w, r) })
		}
	}
	return s, nil
}

// recoverSessions rebuilds the sessions journaled in the durable
// backend: each session's admitted events replay in order through a
// fresh session (the same incremental path that admitted them), so the
// recovered session's live set, parked set, and coordination state
// match the pre-crash session. Replay is deterministic because the
// store was recovered first and events re-run against it in admission
// order.
func (s *Server) recoverSessions(newSession func(bool) *stream.Session) error {
	if s.opts.Persist == nil {
		return nil
	}
	recovered, err := s.opts.Persist.RecoverSessions()
	if err != nil {
		return err
	}
	for _, rs := range recovered {
		sess := newSession(rs.Park)
		for _, ev := range rs.Events {
			// Outcomes are not re-checked: only admitted/parked events
			// were journaled, and replay over the recovered store is
			// deterministic, so each event lands as it originally did.
			sess.Apply(ev)
		}
		s.reg.adopt(rs.Name, sess, rs.Journal)
		s.recovery.RecoveredSessions = append(s.recovery.RecoveredSessions, rs.Name)
	}
	s.recovery.Enabled = true
	s.recovery.DataDir = s.opts.Persist.Dir()
	s.recovery.RecoveryStats = s.opts.Persist.RecoveryStats()
	return nil
}

// probeLoop periodically tries to lift degraded mode: while the
// backend reports degraded, each tick issues a probe write; the first
// one that reaches stable storage flushes the pending journal payloads
// and re-opens the write path. Healthy ticks are free (one atomic
// load).
func (s *Server) probeLoop(interval time.Duration) {
	defer close(s.probeDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			if s.opts.Persist.Degraded() {
				// A failed probe keeps degraded mode; the next tick
				// retries. The backend counts both outcomes.
				_ = s.opts.Persist.Probe()
			}
		}
	}
}

// writeGate rejects write-path work while the durable backend is
// degraded: the request fails up front with a typed, retryable error —
// its fate known — instead of mutating in-memory state the journal
// cannot yet record. Read paths (status, health, metrics, recovery)
// are never gated.
func (s *Server) writeGate() error {
	if s.opts.Persist != nil && s.opts.Persist.Degraded() {
		return fmt.Errorf("%w (cause: %v)", persist.ErrDegraded, s.opts.Persist.DegradeCause())
	}
	return nil
}

// createSession gates and creates one named session. The names an HTTP
// path cannot carry are refused on every protocol, so every session is
// reachable over each.
func (s *Server) createSession(_ context.Context, q wire.CreateSessionReq, _ bool) (api.CreateSessionResponse, int, error) {
	if !wire.PathSafe(q.ID) {
		return api.CreateSessionResponse{}, 0, badRequest(http.StatusBadRequest, "session name %q is a dot segment, which no URL path can carry", q.ID)
	}
	if err := s.writeGate(); err != nil {
		return api.CreateSessionResponse{}, 0, err
	}
	h, err := s.reg.create(q.ID, q.ParkUnsafe)
	if err != nil {
		return api.CreateSessionResponse{}, 0, err
	}
	return api.CreateSessionResponse{ID: h.name}, http.StatusCreated, nil
}

// deleteSession gates and removes one session. Deletion is a write: it
// logs the session's drop, and a drop the degraded filesystem loses
// would resurrect the session on restart. A drop that fails after the
// gate answers ack_indeterminate: the session is gone from memory and
// its drop waits for the next probe.
func (s *Server) deleteSession(_ context.Context, q wire.SessionReq, _ bool) (wire.None, int, error) {
	if err := s.writeGate(); err != nil {
		return wire.None{}, 0, err
	}
	return wire.None{}, http.StatusNoContent, s.reg.remove(q.Session)
}

// ServeHTTP implements http.Handler. The X-Tenant header, when
// present, attaches the caller's tenant identity to the request
// context — the HTTP analogue of the binary protocol's tenant
// envelope; handlers read it back with tenantOf.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if ten := r.Header.Get(api.TenantHeader); ten != "" {
		ctx, err := withTenant(r.Context(), ten)
		if err != nil {
			writeError(w, err)
			return
		}
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(w, r)
}

// withTenant attaches a client-chosen tenant name to the context, at
// either protocol's edge; a name over the cap is refused there, so no
// map downstream is ever keyed by an arbitrarily long string.
func withTenant(ctx context.Context, name string) (context.Context, error) {
	if len(name) > admission.MaxTenantName {
		return nil, badRequest(http.StatusBadRequest, "tenant name of %d bytes exceeds the %d-byte cap", len(name), admission.MaxTenantName)
	}
	return admission.WithTenant(ctx, admission.Tenant(name)), nil
}

// tenantOf resolves the request's tenant for queue routing and
// accounting — once, through the controller, so the batcher's queues
// key on a tenant the controller keeps state for and inherit its bound
// (admission.MaxUnconfigured); without admission, the single anonymous
// tenant.
func (s *Server) tenantOf(ctx context.Context) admission.Tenant {
	if s.adm == nil {
		return ""
	}
	return s.adm.Resolve(admission.FromContext(ctx))
}

// Close drains the server: the batch queue stops admitting and serves
// what it holds, the janitor stops, and every session serves the events
// waiting for its turn, then refuses later ones. Safe to call more than
// once. Pair it with http.Server.Shutdown, which drains the
// connections; Close drains the work behind them.
func (s *Server) Close() {
	s.closing.Do(func() {
		close(s.closed)
		if s.probeDone != nil {
			<-s.probeDone
		}
		// Stop accepting binary connections first so no new work arrives
		// while the queues drain.
		s.wireMu.Lock()
		for l := range s.wireLs {
			l.Close()
		}
		s.wireMu.Unlock()
		s.batch.close()
		s.reg.close()
		// Existing binary connections finish their in-flight requests
		// (the drained queues answer them, typically with "draining"),
		// then close.
		s.wireMu.Lock()
		conns := make([]*wireConn, 0, len(s.wireConns))
		for wc := range s.wireConns {
			conns = append(conns, wc)
		}
		s.wireMu.Unlock()
		for _, wc := range conns {
			wc.inflight.Wait()
			wc.c.Close()
		}
		// Flush the log, so a drained server's whole data directory is
		// on stable storage regardless of sync policy. The backend
		// itself stays open — the caller owns it.
		if s.opts.Persist != nil {
			s.opts.Persist.Sync()
		}
	})
}

// draining reports whether Close has begun.
func (s *Server) draining() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// writeJSON writes a JSON body with a status code. The body is rendered
// into a pooled buffer, by its own AppendJSON when it has one
// (api.CoordinateResponse) and by json.Encoder otherwise, newline
// included, and goes out in one write under its Content-Length: a batch
// reply past net/http's response buffer is then not chunked, and the
// client reads it into one presized buffer. The buffer is back in the
// pool before the row's done hook runs.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := wire.GetBuf()
	if r, ok := v.(interface{ AppendJSON([]byte) []byte }); ok {
		*buf = append(r.AppendJSON(*buf), '\n')
	} else {
		_ = json.NewEncoder((*appendWriter)(buf)).Encode(v)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*buf)))
	w.WriteHeader(status)
	_, _ = w.Write(*buf) // a failed write is the client's gone; nothing to tell it
	wire.PutBuf(buf)
}

// appendWriter is an io.Writer that appends to the slice it is.
type appendWriter []byte

func (a *appendWriter) Write(p []byte) (int, error) {
	*a = append(*a, p...)
	return len(p), nil
}

// writeError renders a failure as its status and error envelope. A
// retry-after hint also goes out as the standard Retry-After header
// (whole seconds, rounded up), so plain HTTP clients that never parse
// the envelope still see it.
func writeError(w http.ResponseWriter, err error) {
	e := api.From(err)
	if e.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((e.RetryAfterMS+999)/1000, 10))
	}
	writeJSON(w, e.Status, api.ErrorEnvelope{Error: e})
}

// coordinate serves the batch operation: every request in the payload
// is admitted into the shared batcher individually, so requests from
// concurrent calls — on either protocol — share one worker pool and
// its fair schedule. Admission rejections (queue full,
// draining, throttled) come back inline as that request's error — the
// call itself stays 200 so one hot spot cannot fail a whole batch.
//
// A batch decoded from a frame goes back to wire's pool here, its one
// release site, once nothing can read it: while ctx lives, every
// submitter waits for its worker's reply, which is sent after the walk,
// a forwarded sub-batch is encoded before it is sent, and scatter
// goroutines are joined. Once ctx has ended a worker may still be
// walking the queries, so the batch is left to the collector, as is a
// refused one.
//
// The reply's results go back to coord's pool (coord.Result.Release) in
// the coordinate row's done hook, once the reply is rendered: on the
// binary path after wc.send returns, the encode being synchronous, over
// HTTP after writeJSON. Nothing else holds them by then. A batcher
// worker forgets a result once it sends it on it.reply; a submitter
// that left never receives its result, which then goes to the
// collector; admission's Done (serveBatchRouted) and the coordQueries
// counter read DBQueries before the reply is rendered, and run settles
// nothing for this row (it has no cost); and a result decoded from a
// peer at a scatter node belongs to this reply alone.
func (s *Server) coordinate(ctx context.Context, q wire.CoordinateReq, forwarded bool) (api.CoordinateResponse, int, error) {
	switch n := len(q.Requests); {
	case n == 0:
		return api.CoordinateResponse{}, 0, badRequest(http.StatusBadRequest, "empty batch")
	case n > maxBatch:
		return api.CoordinateResponse{}, 0, badRequest(http.StatusBadRequest, "batch of %d exceeds the %d-request cap", n, maxBatch)
	}
	resps := s.serveBatchRouted(ctx, q.Requests, forwarded)
	if ctx.Err() == nil {
		q.Release()
	}
	return api.CoordinateResponse{Responses: resps}, http.StatusOK, nil
}

// serveBatch admits every request into the shared batcher individually
// and collects the responses. Both protocols serve batches through this
// one path, so an HTTP call and a binary frame carrying the same
// requests produce identical api.Response values — results and error
// text alike.
func (s *Server) serveBatch(ctx context.Context, reqs []api.Request) []api.Response {
	ten := s.tenantOf(ctx)
	out := make([]api.Response, len(reqs))
	var wg sync.WaitGroup
	for i, cr := range reqs {
		wg.Add(1)
		go func(i int, cr api.Request) {
			defer wg.Done()
			start := time.Now()
			resp, err := s.batch.submit(ctx, ten, engine.Request{ID: cr.ID, Queries: cr.Queries})
			s.met.coordLatency.observe(time.Since(start))
			if err == nil {
				err = resp.Err
			}
			s.met.coordRequests.Add(1)
			switch {
			case err != nil:
				if errors.Is(err, api.ErrOverloaded) || errors.Is(err, api.ErrDraining) {
					s.met.coordRejected.Add(1)
				} else {
					s.met.coordErrors.Add(1)
				}
				out[i] = api.Response{ID: cr.ID, Error: api.From(err)}
			default:
				if resp.Result != nil {
					s.met.coordQueries.Add(resp.Result.DBQueries)
				}
				out[i] = api.Response{ID: cr.ID, Result: resp.Result}
			}
		}(i, cr)
	}
	wg.Wait()
	return out
}

// sessionEvent resolves the session and serves the event in the
// session's turn, metering the trip. A parked arrival is 202 Accepted
// with the update (the query is queued for retry, not live). The
// degraded gate runs before the event touches the session: a rejected
// event was never applied, so its fate is known and the client can
// retry it freely.
func (s *Server) sessionEvent(ctx context.Context, name string, ev stream.Event) (api.Update, int, error) {
	if err := s.writeGate(); err != nil {
		return api.Update{}, 0, err
	}
	h, err := s.reg.get(name)
	if err != nil {
		return api.Update{}, 0, err
	}
	start := time.Now()
	up, err := h.post(ctx, ev)
	s.met.sessionLatency.observe(time.Since(start))
	s.met.sessionEvents.Add(1)
	if err != nil {
		return api.Update{}, 0, err
	}
	status := http.StatusOK
	if up.Parked {
		status = http.StatusAccepted
	}
	return api.UpdateFrom(up), status, nil
}

// sessionStatus snapshots one session as its API DTO.
func (s *Server) sessionStatus(_ context.Context, q wire.StatusReq, _ bool) (api.SessionStatus, int, error) {
	h, err := s.reg.get(q.Session)
	if err != nil {
		return api.SessionStatus{}, 0, err
	}
	h.touch()
	// One locked snapshot: Result's indices must agree with Queries
	// even while other clients join and leave this session.
	snap, err := h.sess.Status(q.Trace)
	if err != nil {
		return api.SessionStatus{}, 0, fmt.Errorf("reading session state: %v", err)
	}
	return api.SessionStatus{
		ID:       h.name,
		Live:     len(snap.Queries),
		Parked:   snap.Parked,
		Queries:  snap.Queries,
		Result:   snap.Result,
		Totals:   snap.Totals,
		Trace:    snap.Trace,
		TeamSize: snap.Result.Size(),
	}, http.StatusOK, nil
}

// health reports liveness and drain state.
// Always answered (never an error): the work endpoints are the ones
// that reject during a drain, and a health probe that can still be
// answered should be.
func (s *Server) health() api.Health {
	h := api.Health{
		Status:   "ok",
		Sessions: s.reg.open(),
		UptimeS:  time.Since(s.met.start).Seconds(),
	}
	if s.opts.Persist != nil && s.opts.Persist.Degraded() {
		h.Status = "degraded"
		h.Degraded = true
		if cause := s.opts.Persist.DegradeCause(); cause != nil {
			h.DegradedCause = cause.Error()
		}
	}
	if c := s.opts.Cluster; c != nil {
		h.Cluster = c.Health()
	}
	// Draining wins: a shutting-down server is past caring about its
	// disk, and probes should steer traffic away either way.
	if s.draining() {
		h.Status = "draining"
	}
	return h
}

// metricsSnapshot assembles the /metrics DTO.
func (s *Server) metricsSnapshot() api.Metrics {
	m := api.Metrics{
		UptimeS: time.Since(s.met.start).Seconds(),
		Coordinate: api.CoordinateMetrics{
			Requests:  s.met.coordRequests.Load(),
			Batches:   s.met.coordBatches.Load(),
			Errors:    s.met.coordErrors.Load(),
			Rejected:  s.met.coordRejected.Load(),
			DBQueries: s.met.coordQueries.Load(),
			Latency:   s.met.coordLatency.snapshot(),
		},
		Sessions: api.SessionMetrics{
			Created: s.reg.created.Load(),
			Evicted: s.reg.evicted.Load(),
			Events:  s.met.sessionEvents.Load(),
			Latency: s.met.sessionLatency.snapshot(),
		},
	}
	handles := s.reg.snapshot()
	sort.Slice(handles, func(i, j int) bool { return handles[i].name < handles[j].name })
	for _, h := range handles {
		t := h.sess.Totals()
		m.Sessions.Open++
		m.Sessions.DBQueries += t.DBQueries
		m.Sessions.PerSession = append(m.Sessions.PerSession, api.SessionCounters{
			ID:        h.name,
			Live:      h.sess.Size(),
			Parked:    h.sess.ParkedCount(),
			Events:    t.Events,
			DBQueries: t.DBQueries,
		})
	}
	if pc, ok := planStats(s.e.Store()); ok {
		m.PlanCache = &pc
	}
	if c := s.opts.Cluster; c != nil {
		m.Cluster = c.Metrics()
	}
	if s.adm != nil {
		m.Admission = s.admissionMetrics()
	}
	if s.opts.Persist != nil {
		pm := s.opts.Persist.Metrics()
		m.Persist = &pm
	}
	return m
}

// admissionMetrics assembles the per-tenant admission block: the
// controller's accounting joined with the batcher's live queue depths
// and dispatch counts.
func (s *Server) admissionMetrics() *api.AdmissionMetrics {
	am := &api.AdmissionMetrics{}
	for _, sn := range s.adm.Snapshot() {
		depth, dispatched := s.batch.tenant(sn.Tenant)
		tc := api.TenantCounters{
			Tenant:            string(sn.Tenant),
			Admitted:          sn.Admitted,
			Throttled:         sn.Throttled(),
			ThrottledRate:     sn.ThrottledRate,
			ThrottledInFlight: sn.ThrottledInFlight,
			ThrottledBudget:   sn.ThrottledBudget,
			InFlight:          sn.InFlight,
			QueueDepth:        depth,
			DBQueriesSpent:    sn.DBQueriesSpent,
			Dispatched:        dispatched,
		}
		am.Admitted += sn.Admitted
		am.Throttled += tc.Throttled
		am.Tenants = append(am.Tenants, tc)
	}
	return am
}

// tenantsStatus reports each tenant's effective policy and live
// accounting. Without admission it answers enabled=false, so clients
// can probe for the feature.
func (s *Server) tenantsStatus() api.TenantsStatus {
	ts := api.TenantsStatus{}
	if s.adm != nil {
		ts.Enabled = true
		for _, sn := range s.adm.Snapshot() {
			depth, _ := s.batch.tenant(sn.Tenant)
			ts.Tenants = append(ts.Tenants, api.TenantStatus{
				Tenant:         string(sn.Tenant),
				Policy:         sn.Policy,
				InFlight:       sn.InFlight,
				QueueDepth:     depth,
				Admitted:       sn.Admitted,
				Throttled:      sn.Throttled(),
				DBQueriesSpent: sn.DBQueriesSpent,
				DBBalance:      sn.DBBalance,
			})
		}
	}
	return ts
}

// recoveryStatus reports what this process replayed at startup; with
// no durable backend it answers enabled=false, so clients can probe
// for durability. Degraded state is live (sampled per request), not a
// startup snapshot.
func (s *Server) recoveryStatus() api.RecoveryStatus {
	rec := s.recovery
	if s.opts.Persist != nil && s.opts.Persist.Degraded() {
		rec.Degraded = true
		if cause := s.opts.Persist.DegradeCause(); cause != nil {
			rec.DegradedCause = cause.Error()
		}
	}
	return rec
}

// String identifies the server in logs.
func (s *Server) String() string {
	return fmt.Sprintf("coordination server (max batch %d, queue %d, mailbox %d, idle timeout %v)",
		maxBatch, queueDepth, mailboxSize, idleTimeout)
}
