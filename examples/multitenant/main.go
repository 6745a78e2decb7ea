// Multi-tenant admission walkthrough: one server speaking both
// protocols with a per-tenant quota policy, two tenants driving it.
// The program proves the PR 10 contract in miniature — tenant identity
// rides the HTTP header and the binary tenant envelope, a tenant
// bursting past its token bucket gets a typed fate-known `throttled`
// rejection carrying the server's retry-after hint (errors.Is resolves
// admission.ErrThrottled across the network), client.Retry turns that
// hint into an eventual success, an in-quota tenant is never touched,
// and GET /v1/tenants shows the per-tenant ledger. It exits non-zero
// on any failure, so CI uses it as the multitenant smoke test. Run:
//
//	go run ./examples/multitenant
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"entangled/internal/admission"
	"entangled/internal/client"
	"entangled/internal/engine"
	"entangled/internal/server"
	"entangled/internal/workload"
)

func main() {
	// The canonical workload table both tenants query.
	store := workload.NewStore(1, 64, 0)

	// Policy: "burst" may sustain 2 requests/second with a bucket of 2
	// (a full refill takes 500ms, comfortably longer than the burst
	// below takes to send, so the counts are deterministic); "steady"
	// has the zero policy — unlimited, but still metered and scheduled
	// fairly.
	ctl := admission.NewController(admission.Config{Tenants: map[string]admission.Policy{
		"burst":  {Rate: 2, Burst: 2},
		"steady": {},
	}})

	// Boot ONE server on two listeners: HTTP/JSON and binary wire.
	srv, err := server.New(engine.New(store, engine.Options{}), server.Options{Admission: ctl})
	if err != nil {
		log.Fatal(err)
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(hln) }()
	go func() { _ = srv.ServeWire(bln) }()
	defer func() { _ = hs.Close(); srv.Close() }()

	// Identity is a client option: the HTTP transport sends the
	// X-Tenant header, the binary transport wraps calls in a tenant
	// envelope. Same API either way.
	steady, err := client.New("http://"+hln.Addr().String(), client.Options{Tenant: "steady"})
	if err != nil {
		log.Fatal(err)
	}
	bursty, err := client.New("tcp://"+bln.Addr().String(), client.Options{Tenant: "burst"})
	if err != nil {
		log.Fatal(err)
	}
	defer bursty.Close()
	ctx := context.Background()

	// --- The steady tenant's batch sails through. --------------------
	batch := make([]client.Request, 8)
	for i := range batch {
		batch[i] = client.Request{ID: fmt.Sprintf("s%d", i), Queries: workload.ListQueriesAt(4, i)}
	}
	resps, err := steady.CoordinateBatch(ctx, batch)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range resps {
		if r.Err != nil {
			log.Fatalf("steady request %s throttled or failed: %v", r.ID, r.Err)
		}
	}
	fmt.Printf("steady -> %d requests served, untouched by the policy\n", len(resps))

	// --- The bursty tenant blows its bucket: typed, fate-known, -------
	// --- hinted rejections with the sentinel intact across the wire. --
	var throttled, admitted int
	var hint time.Duration
	for i := 0; i < 6; i++ {
		_, err := bursty.Coordinate(ctx, workload.ListQueriesAt(4, i))
		if err == nil {
			admitted++
			continue
		}
		if !errors.Is(err, admission.ErrThrottled) {
			log.Fatalf("burst rejection lost the sentinel: %v", err)
		}
		if !client.FateKnown(err) || !client.IsRetryable(err) {
			log.Fatalf("throttle must be fate-known and retryable: %v", err)
		}
		var ce *client.Error
		if errors.As(err, &ce) && ce.RetryAfterHint() > 0 {
			hint = ce.RetryAfterHint()
		}
		throttled++
	}
	if admitted != 2 || throttled != 4 || hint == 0 {
		log.Fatalf("burst of 6 -> %d admitted %d throttled (hint %v), want 2/4 with a hint", admitted, throttled, hint)
	}
	fmt.Printf("burst  -> 2 admitted, 4 throttled with retry-after %v, sentinel survives errors.Is\n", hint)

	// --- client.Retry honors the hint: sleep what the server said, ----
	// --- then the refilled bucket admits the request. -----------------
	r := client.Retry{Attempts: 6, Budget: 5 * time.Second}
	if err := r.DoFateKnown(ctx, func(ctx context.Context) error {
		_, err := bursty.Coordinate(ctx, workload.ListQueriesAt(4, 0))
		return err
	}); err != nil {
		log.Fatalf("hinted retry never got through: %v", err)
	}
	fmt.Println("retry  -> hinted backoff waited out the bucket and succeeded")

	// --- The ledger: GET /v1/tenants (HTTP surface). ------------------
	ts, err := steady.Tenants(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if !ts.Enabled {
		log.Fatal("admission is configured but /v1/tenants reports disabled")
	}
	for _, t := range ts.Tenants {
		fmt.Printf("ledger -> %-6s admitted=%d throttled=%d spent=%d db-queries\n",
			t.Tenant, t.Admitted, t.Throttled, t.DBQueriesSpent)
		if t.InFlight != 0 {
			log.Fatalf("tenant %s reports %d in-flight after quiescence", t.Tenant, t.InFlight)
		}
	}
}
