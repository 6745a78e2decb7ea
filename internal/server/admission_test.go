package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"entangled/internal/admission"
	"entangled/internal/api"
	"entangled/internal/client"
	"entangled/internal/engine"
	"entangled/internal/server"
	"entangled/internal/wire"
	"entangled/internal/workload"
)

// tenantHarness is one server speaking both protocols with (or
// without) admission, plus a per-tenant client factory.
type tenantHarness struct {
	t       *testing.T
	srv     *server.Server
	httpURL string
	binAddr string
}

func newAdmissionLoopback(t *testing.T, cfg *admission.Config, sopts server.Options) *tenantHarness {
	t.Helper()
	e := engine.New(workload.NewStore(1, 64, 0), engine.Options{})
	if cfg != nil {
		sopts.Admission = admission.NewController(*cfg)
	}
	srv, err := server.New(e, sopts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return &tenantHarness{t: t, srv: srv, httpURL: ts.URL, binAddr: ln.Addr().String()}
}

// client returns a client for one tenant over one protocol ("http" or
// "binary").
func (h *tenantHarness) client(proto, tenant string) *client.Client {
	h.t.Helper()
	base := h.httpURL
	if proto == "binary" {
		base = "tcp://" + h.binAddr
	}
	c, err := client.New(base, client.Options{Tenant: tenant})
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { c.Close() })
	return c
}

// requireThrottled asserts one error is the full typed throttle
// contract: the stable code, the sentinel surviving errors.Is across
// the network, fate-known (safe to blind-retry), and retryable.
func requireThrottled(t *testing.T, err error) *client.Error {
	t.Helper()
	if err == nil {
		t.Fatal("want a throttled error, got success")
	}
	var e *client.Error
	if !errors.As(err, &e) {
		t.Fatalf("throttle is not a typed *client.Error: %v", err)
	}
	if e.Code != api.CodeThrottled {
		t.Fatalf("code = %q, want %q (%v)", e.Code, api.CodeThrottled, err)
	}
	if !errors.Is(err, admission.ErrThrottled) {
		t.Fatalf("errors.Is(err, admission.ErrThrottled) is false for %v", err)
	}
	if !client.FateKnown(err) || !client.IsRetryable(err) {
		t.Fatalf("throttle must be fate-known and retryable: %v", err)
	}
	return e
}

// TestAdmissionFairnessAcrossProtocols is the fairness proof: a hot
// tenant submits a batch far over its in-flight quota while four
// in-quota tenants run their full workloads concurrently, over both
// protocols. The in-quota tenants' admitted throughput must equal
// their solo baseline (every request succeeds — trivially >= the 90%
// bar), the hot tenant must receive ONLY the typed throttled error for
// its rejected requests (zero untyped errors, zero silent drops), and
// the controller's in-flight accounting must drain back to zero.
func TestAdmissionFairnessAcrossProtocols(t *testing.T) {
	const quietReqs = 20
	for _, proto := range []string{"http", "binary"} {
		t.Run(proto, func(t *testing.T) {
			h := newAdmissionLoopback(t, &admission.Config{
				Tenants: map[string]admission.Policy{
					"hot": {MaxInFlight: 1},
				},
			}, server.Options{})

			quietBatch := func() []client.Request {
				reqs := make([]client.Request, quietReqs)
				for i := range reqs {
					reqs[i] = client.Request{ID: fmt.Sprintf("q%d", i), Queries: workload.ListQueriesAt(4, i%64)}
				}
				return reqs
			}

			// Solo baseline: an in-quota tenant alone admits everything.
			solo := h.client(proto, "baseline")
			resps, err := solo.CoordinateBatch(context.Background(), quietBatch())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range resps {
				if r.Err != nil {
					t.Fatalf("solo baseline rejected: %v", r.Err)
				}
			}

			// Contention: the hot tenant floods one batch of 32 — 32x its
			// in-flight quota of 1 — while four quiet tenants run the solo
			// workload concurrently.
			var wg sync.WaitGroup
			quietErrs := make(chan error, 4)
			for i := 0; i < 4; i++ {
				c := h.client(proto, fmt.Sprintf("quiet%d", i))
				wg.Add(1)
				go func() {
					defer wg.Done()
					resps, err := c.CoordinateBatch(context.Background(), quietBatch())
					if err != nil {
						quietErrs <- err
						return
					}
					for _, r := range resps {
						if r.Err != nil {
							quietErrs <- r.Err
							return
						}
					}
				}()
			}
			hot := h.client(proto, "hot")
			hotReqs := make([]client.Request, 32)
			for i := range hotReqs {
				hotReqs[i] = client.Request{ID: fmt.Sprintf("h%d", i), Queries: workload.ListQueriesAt(4, i%64)}
			}
			hotResps, err := hot.CoordinateBatch(context.Background(), hotReqs)
			if err != nil {
				t.Fatalf("hot batch call itself failed: %v", err)
			}
			wg.Wait()
			select {
			case err := <-quietErrs:
				t.Fatalf("in-quota tenant rejected under hot-tenant load: %v", err)
			default:
			}

			// Every hot response is either a result or the typed throttle —
			// nothing untyped, nothing missing. Admission decides the batch
			// sequentially against an in-flight cap of 1, so exactly one
			// request was admitted.
			admitted, throttled := 0, 0
			for _, r := range hotResps {
				switch {
				case r.Err == nil && r.Result != nil:
					admitted++
				case r.Err != nil:
					requireThrottled(t, r.Err)
					throttled++
				default:
					t.Fatalf("silent drop: response %q has neither result nor error", r.ID)
				}
			}
			if admitted != 1 || throttled != 31 {
				t.Fatalf("hot batch: %d admitted / %d throttled, want 1/31", admitted, throttled)
			}

			// The ledger agrees, and every in-flight slot was released.
			st, err := h.client("http", "").Tenants(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !st.Enabled {
				t.Fatal("tenants endpoint reports admission disabled")
			}
			byName := map[string]api.TenantStatus{}
			for _, ts := range st.Tenants {
				byName[ts.Tenant] = ts
			}
			hotSt, ok := byName["hot"]
			if !ok {
				t.Fatalf("no hot tenant in %+v", st.Tenants)
			}
			if hotSt.Admitted != 1 || hotSt.Throttled != 31 {
				t.Fatalf("hot ledger: admitted %d throttled %d, want 1/31", hotSt.Admitted, hotSt.Throttled)
			}
			for name, ts := range byName {
				if ts.InFlight != 0 {
					t.Fatalf("tenant %s still holds %d in-flight slots after quiescence", name, ts.InFlight)
				}
			}
			for i := 0; i < 4; i++ {
				q := byName[fmt.Sprintf("quiet%d", i)]
				if q.Admitted != quietReqs || q.Throttled != 0 {
					t.Fatalf("quiet%d ledger: admitted %d throttled %d, want %d/0", i, q.Admitted, q.Throttled, quietReqs)
				}
				if q.DBQueriesSpent == 0 {
					t.Fatalf("quiet%d spent no DBQueries despite %d admitted requests", i, quietReqs)
				}
			}
		})
	}
}

// TestAdmissionRetryAfterAcrossProtocols: a rate-limited tenant's
// rejection carries a positive retry-after hint through both codecs
// (the wire field and the HTTP envelope + Retry-After header), and the
// session create path reports the same typed error as the batch path.
func TestAdmissionRetryAfterAcrossProtocols(t *testing.T) {
	h := newAdmissionLoopback(t, &admission.Config{
		Tenants: map[string]admission.Policy{
			// One token, refilled at 0.1/s: the first call admits, the
			// second throttles with a ~10s hint.
			"limh": {Rate: 0.1, Burst: 1},
			"limb": {Rate: 0.1, Burst: 1},
		},
	}, server.Options{})
	ctx := context.Background()
	for proto, tenant := range map[string]string{"http": "limh", "binary": "limb"} {
		c := h.client(proto, tenant)
		if _, err := c.Coordinate(ctx, workload.ListQueriesAt(4, 0)); err != nil {
			t.Fatalf("%s: first request should admit: %v", proto, err)
		}
		_, err := c.Coordinate(ctx, workload.ListQueriesAt(4, 0))
		e := requireThrottled(t, err)
		if e.RetryAfterHint() <= 0 {
			t.Fatalf("%s: inline throttle has no retry-after hint: %+v", proto, e)
		}
		// The session-create path throttles identically — but as the
		// call's own error (HTTP 429 / wire error reply), not inline.
		_, err = c.CreateSession(ctx, "s-"+tenant, false)
		e = requireThrottled(t, err)
		if e.RetryAfterHint() <= 0 {
			t.Fatalf("%s: create throttle has no retry-after hint: %+v", proto, e)
		}
		if proto == "http" && e.Status != 429 {
			t.Fatalf("http create throttle status = %d, want 429", e.Status)
		}
	}
}

// TestAdmissionSessionGatesJoinNotLeave: creates and joins are gated,
// leaves never are — a tenant over budget can always release load, and
// the release is still metered against its spend.
func TestAdmissionSessionGatesJoinNotLeave(t *testing.T) {
	for proto, tenant := range map[string]string{"http": "sh", "binary": "sb"} {
		h := newAdmissionLoopback(t, &admission.Config{
			Tenants: map[string]admission.Policy{
				// Two tokens, effectively never refilled: one create + one
				// join, then the gate closes.
				tenant: {Rate: 0.0001, Burst: 2},
			},
		}, server.Options{})
		ctx := context.Background()
		c := h.client(proto, tenant)
		sess, err := c.CreateSession(ctx, "team", false)
		if err != nil {
			t.Fatalf("%s create: %v", proto, err)
		}
		// The list's tail grounds on its own, one store query; its
		// head, whose postcondition the tail provides for, would not.
		q := workload.ListQueriesAt(2, 0)
		if _, err := sess.Join(ctx, q[1]); err != nil {
			t.Fatalf("%s first join: %v", proto, err)
		}
		_, err = sess.Join(ctx, q[0])
		requireThrottled(t, err)
		// The leave proceeds despite the empty bucket...
		if _, err := sess.Leave(ctx, q[1].ID); err != nil {
			t.Fatalf("%s leave while throttled: %v", proto, err)
		}
		// ...and its store work landed on the tenant's ledger.
		st, err := h.client("http", "").Tenants(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range st.Tenants {
			if ts.Tenant == tenant && ts.DBQueriesSpent == 0 {
				t.Fatalf("%s: tenant %s has zero spend after join+leave", proto, tenant)
			}
		}
	}
}

// TestAdmissionTransparentWhenUnconfigured: a server without Admission
// behaves exactly as before the layer existed, even for clients that
// send tenant identity — no gating, no tenant accounting, and the
// tenants endpoint reports the feature off.
func TestAdmissionTransparentWhenUnconfigured(t *testing.T) {
	h := newAdmissionLoopback(t, nil, server.Options{})
	ctx := context.Background()
	for _, proto := range []string{"http", "binary"} {
		c := h.client(proto, "acme")
		if _, err := c.Coordinate(ctx, workload.ListQueriesAt(4, 0)); err != nil {
			t.Fatalf("%s coordinate with tenant set: %v", proto, err)
		}
		sess, err := c.CreateSession(ctx, "plain-"+proto, false)
		if err != nil {
			t.Fatalf("%s create: %v", proto, err)
		}
		q := workload.ListQueriesAt(1, 0)[0]
		if _, err := sess.Join(ctx, q); err != nil {
			t.Fatalf("%s join: %v", proto, err)
		}
		if _, err := sess.Leave(ctx, q.ID); err != nil {
			t.Fatalf("%s leave: %v", proto, err)
		}
	}
	st, err := h.client("http", "").Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Enabled || len(st.Tenants) != 0 {
		t.Fatalf("unconfigured server reports tenants: %+v", st)
	}
	m, err := h.client("http", "").Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Admission != nil {
		t.Fatalf("unconfigured server reports admission metrics: %+v", m.Admission)
	}
}

// TestAdmissionMetricsShares: under admission, /metrics grows the
// per-tenant admission block with the dispatch counts of the fair
// schedule.
func TestAdmissionMetricsShares(t *testing.T) {
	h := newAdmissionLoopback(t, &admission.Config{}, server.Options{})
	ctx := context.Background()
	c := h.client("http", "acme")
	for i := 0; i < 5; i++ {
		if _, err := c.Coordinate(ctx, workload.ListQueriesAt(4, i)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := h.client("http", "").Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Admission == nil {
		t.Fatal("no admission metrics block")
	}
	if m.Admission.Admitted < 5 {
		t.Fatalf("admitted = %d, want >= 5", m.Admission.Admitted)
	}
	var acme *api.TenantCounters
	for i := range m.Admission.Tenants {
		if m.Admission.Tenants[i].Tenant == "acme" {
			acme = &m.Admission.Tenants[i]
		}
	}
	if acme == nil {
		t.Fatalf("no acme tenant in %+v", m.Admission.Tenants)
	}
	if acme.Dispatched != 5 {
		t.Fatalf("dispatched = %d, want 5", acme.Dispatched)
	}
	if acme.DBQueriesSpent == 0 {
		t.Fatal("acme spent no DBQueries despite 5 coordinations")
	}
}

// TestTenantNamesAreBounded: a tenant name is client-chosen, so the
// state it can create is bounded. 5,000 distinct names over both
// protocols leave at most configured + admission.MaxUnconfigured + 1
// tenants anywhere a tenant keys a map — the controller (what
// /v1/tenants lists) and the batcher's queues —
// with the overflow accounted as the default tenant and the configured
// tenant's quota exactly what it was; a name over the length cap is the
// same bad_request on both protocols and creates nothing.
func TestTenantNamesAreBounded(t *testing.T) {
	cfg := &admission.Config{Tenants: map[string]admission.Policy{
		"lim": {Rate: 0.001, Burst: 1}, // one request, then throttled for the test's lifetime
	}}
	h := newAdmissionLoopback(t, cfg, server.Options{})
	ctx := context.Background()
	quota := func(when string) {
		t.Helper()
		for _, proto := range []string{"http", "binary"} {
			_, err := h.client(proto, "lim").Coordinate(ctx, workload.ListQueriesAt(2, 0))
			if when == "before" && proto == "http" {
				if err != nil {
					t.Fatalf("lim's first request: %v", err)
				}
				continue
			}
			requireThrottled(t, err)
		}
	}
	quota("before")

	const names = 5000
	body, err := json.Marshal(api.CoordinateRequest{Requests: []api.Request{{Queries: workload.ListQueriesAt(2, 1)}}})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := dialWire(h.binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("tenant-%04d-%s", i, strings.Repeat("x", 200))
		if i%2 == 0 {
			r := httptest.NewRequest("POST", "/v1/coordinate", bytes.NewReader(body))
			r.Header.Set(api.TenantHeader, name)
			w := httptest.NewRecorder()
			h.srv.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				t.Fatalf("request %d: HTTP %d %s", i, w.Code, w.Body)
			}
			continue
		}
		var inner wire.Enc
		wire.CoordinateReq{Requests: []api.Request{{Queries: workload.ListQueriesAt(2, 1)}}}.Encode(&inner)
		if _, _, err := cc.Call(ctx, wire.KindTenant, tenantReq(name, wire.KindCoordinate, inner.Bytes())); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	bound := len(cfg.Tenants) + admission.MaxUnconfigured + 1
	st, err := h.client("http", "").Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tenants) > bound {
		t.Fatalf("/v1/tenants lists %d tenants after %d names, want <= %d", len(st.Tenants), names, bound)
	}
	var own, overflow int64
	for _, ts := range st.Tenants {
		switch {
		case ts.Tenant == string(admission.Default):
			overflow = ts.Admitted
		case ts.Tenant != "lim":
			own += ts.Admitted
		}
	}
	if own != admission.MaxUnconfigured || own+overflow != names {
		t.Fatalf("%d requests under their own name and %d as default, want %d and %d",
			own, overflow, admission.MaxUnconfigured, names-admission.MaxUnconfigured)
	}
	if queues := h.srv.TenantKeyed(); queues > bound {
		t.Fatalf("batcher keeps %d tenant queues, want <= %d", queues, bound)
	}
	quota("after")

	// The length cap: 256 bytes pass, 257 are refused before anything is
	// keyed by them, identically on both protocols.
	if _, err := h.client("http", strings.Repeat("n", admission.MaxTenantName)).Coordinate(ctx, workload.ListQueriesAt(2, 1)); err != nil {
		t.Fatalf("a %d-byte tenant name: %v", admission.MaxTenantName, err)
	}
	long := strings.Repeat("n", admission.MaxTenantName+1)
	_, herr := h.client("http", long).CreateSession(ctx, "", false)
	_, berr := h.client("binary", long).CreateSession(ctx, "", false)
	sameClientError(t, "over-long tenant name", herr, berr)
	var ce *client.Error
	if !errors.As(herr, &ce) || ce.Status != http.StatusBadRequest || ce.Code != api.CodeBadRequest {
		t.Fatalf("over-long tenant name: %v, want 400 bad_request", herr)
	}
	if after, err := h.client("http", "").Tenants(ctx); err != nil || len(after.Tenants) != len(st.Tenants) {
		t.Fatalf("refused names created tenants: %d -> %d (%v)", len(st.Tenants), len(after.Tenants), err)
	}
}

// TestStandaloneNodeRefusesForwards: a node outside a cluster takes a
// forward envelope for the protocol error it is and closes the
// connection, so a client cannot wrap its calls in forwards to skip
// admission and billing: with a burst of 1, five plain calls see four
// throttled, and fifty forwarded ones are served none and move no
// counter of the tenant's ledger.
func TestStandaloneNodeRefusesForwards(t *testing.T) {
	h := newAdmissionLoopback(t, &admission.Config{Default: admission.Policy{Rate: 0.001, Burst: 1}}, server.Options{})
	ctx := context.Background()
	queries := workload.ListQueriesAt(2, 1)
	c := h.client("binary", "")
	throttled := 0
	for range 5 {
		if _, err := c.Coordinate(ctx, queries); err != nil {
			requireThrottled(t, err)
			throttled++
		}
	}
	if throttled != 4 {
		t.Fatalf("%d of 5 plain calls throttled, want 4", throttled)
	}
	ledger := func() []api.TenantStatus {
		ts, err := h.client("http", "").Tenants(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return ts.Tenants
	}
	before := ledger()

	cc, err := dialWire(h.binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	var inner wire.Enc
	wire.Coordinate.Bind(wire.CoordinateReq{Requests: []api.Request{{ID: "f", Queries: queries}}}).Encode(&inner)
	fwd := wire.Forward{Origin: "x", Hops: 1, Kind: wire.KindCoordinate, Body: inner.Bytes()}
	for i := range 50 {
		if status, _, err := cc.Call(ctx, wire.KindForward, fwd.Encode); err == nil {
			t.Fatalf("forward %d served with status %d by a standalone node", i, status)
		}
	}
	after := ledger()
	if len(after) != len(before) {
		t.Fatalf("ledger before the forwards %+v, after %+v", before, after)
	}
	for i, b := range before {
		if a := after[i]; a.Tenant != b.Tenant || a.Admitted != b.Admitted || a.Throttled != b.Throttled || a.DBQueriesSpent != b.DBQueriesSpent {
			t.Fatalf("ledger moved across the forwards: before %+v, after %+v", b, a)
		}
	}
}
