package server_test

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"entangled/internal/api"
	"entangled/internal/client"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/fault"
	"entangled/internal/persist"
	"entangled/internal/server"
	"entangled/internal/workload"
)

// openFaultBackend opens a durable backend whose bytes go through the
// injected filesystem, seeding a fresh directory first. Schedules
// should path-filter so seeding never consumes their budget.
func openFaultBackend(t *testing.T, dir string, inj *fault.Injector, rows int, sync persist.SyncPolicy) *persist.Backend {
	t.Helper()
	b, err := persist.Open(dir, persist.Options{
		Sync: sync,
		FS:   fault.NewFS(fault.OS, inj),
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Fresh() {
		if err := db.ApplyAll(b, workload.UserTableMutations(rows)); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func wantCode(t *testing.T, err error, code string) *client.Error {
	t.Helper()
	var ce *client.Error
	if !errors.As(err, &ce) {
		t.Fatalf("err %v (%T) is not a typed client error", err, err)
	}
	if ce.Code != code {
		t.Fatalf("code %q, want %q (err: %v)", ce.Code, code, err)
	}
	return ce
}

// TestServerDegradedModeAckFateAndRecovery walks the whole degraded
// state machine over live HTTP and binary clients: an injected fsync
// failure fails exactly one ack (indeterminate), flips the server
// read-only (later writes rejected with the degraded code on both
// protocols, fate known), surfaces in /healthz, /metrics and
// /v1/recovery, lifts after a successful probe, and a restart
// recovers every event whose ack — or pending flush — reached the
// journal.
func TestServerDegradedModeAckFateAndRecovery(t *testing.T) {
	const rows = 32
	dir := t.TempDir()
	// The log's first fsync is the seed table's, the second the
	// session's create frame; the third — the first event append —
	// fails once.
	inj := fault.NewInjector(1, fault.Rule{
		Op: fault.OpSync, Path: "wal-", After: 2, Count: 1,
		Fault: fault.Fault{Err: syscall.EIO},
	})
	backend := openFaultBackend(t, dir, inj, rows, persist.SyncAlways)
	e := engine.New(backend, engine.Options{})
	// ProbeInterval < 0: the test drives recovery explicitly, so the
	// degraded window is deterministic.
	srv, err := server.New(e, server.Options{Persist: backend, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	httpC, err := client.New(ts.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln)
	binC, err := client.New("tcp://"+ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer binC.Close()
	ctx := context.Background()

	sess, err := httpC.CreateSession(ctx, "dg", false)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Arrivals(workload.Steady, 4, rows, 3)

	// Event 1: applied in memory, journal fsync fails → indeterminate.
	_, err = sess.Join(ctx, arrivals[0].Query)
	ce := wantCode(t, err, api.CodeAckIndeterminate)
	if !errors.Is(ce, persist.ErrIndeterminate) {
		t.Fatal("typed error does not unwrap to persist.ErrIndeterminate across the network")
	}
	if client.FateKnown(ce) {
		t.Fatal("an indeterminate ack must not be fate-known")
	}
	if !client.IsRetryable(ce) {
		t.Fatal("an indeterminate ack should be retryable (for idempotent ops)")
	}

	// Every later write is gated up front, on both protocols.
	_, err = sess.Join(ctx, arrivals[1].Query)
	ce = wantCode(t, err, api.CodeDegraded)
	if !errors.Is(ce, persist.ErrDegraded) || !client.FateKnown(ce) || !client.IsRetryable(ce) {
		t.Fatalf("degraded rejection should unwrap, be fate-known and retryable: %v", ce)
	}
	if _, err := binC.Session("dg").Join(ctx, arrivals[1].Query); true {
		wantCode(t, err, api.CodeDegraded)
	}
	if _, err := httpC.CreateSession(ctx, "other", false); true {
		wantCode(t, err, api.CodeDegraded)
	}
	if _, err := binC.CreateSession(ctx, "other2", false); true {
		wantCode(t, err, api.CodeDegraded)
	}
	if err := sess.Close(ctx); true {
		wantCode(t, err, api.CodeDegraded)
	}

	// Reads still work: the server degrades, it does not die.
	if st, err := sess.Status(ctx, false); err != nil || st.Live != 1 {
		t.Fatalf("status while degraded: %v (live %d, want the applied event visible)", err, st.Live)
	}
	h, err := httpC.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || !h.Degraded || h.DegradedCause == "" {
		t.Fatalf("healthz %+v, want degraded with a cause", h)
	}
	if bh, err := binC.Health(ctx); err != nil || !bh.Degraded || bh.Status != "degraded" {
		t.Fatalf("binary healthz %+v (%v)", bh, err)
	}
	m, err := httpC.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Persist == nil || !m.Persist.Degraded || m.Persist.DegradeEvents != 1 || m.Persist.PendingAppends == 0 {
		t.Fatalf("persist metrics %+v, want degraded with pending appends", m.Persist)
	}
	rec, err := httpC.Recovery(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Degraded || rec.DegradedCause == "" {
		t.Fatalf("recovery status %+v, want live degraded state", rec)
	}

	// The disk is healthy again (the schedule is spent): one probe
	// flushes the pending event and reopens the write path.
	if _, faults := inj.Stats(); faults == 0 || !inj.Exhausted() {
		t.Fatal("fault schedule not consumed where expected")
	}
	if err := backend.Probe(); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if h, err := httpC.Health(ctx); err != nil || h.Status != "ok" || h.Degraded {
		t.Fatalf("healthz after probe %+v (%v), want ok", h, err)
	}
	if _, err := sess.Join(ctx, arrivals[1].Query); err != nil {
		t.Fatalf("join after recovery: %v", err)
	}

	// Restart: both events — the flushed indeterminate one and the
	// post-recovery ack — survive byte-for-byte.
	ts.Close()
	srv.Close()
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}
	backend2 := openBackend(t, dir, 1, rows, persist.SyncAlways)
	c2, srv2, ts2 := durableLoopback(t, backend2)
	t.Cleanup(func() { ts2.Close(); srv2.Close(); backend2.Close() })
	rec2, err := c2.Recovery(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Sessions != 1 || rec2.SessionEvents != 2 {
		t.Fatalf("recovered %d sessions / %d events, want 1/2 (pending flush lost?)", rec2.Sessions, rec2.SessionEvents)
	}
	tr := &churnTrack{name: "dg", live: map[string]bool{
		arrivals[0].Query.ID: true,
		arrivals[1].Query.ID: true,
	}}
	checkRecovered(t, ctx, c2, backend2, tr)
}

// TestServerProbeLoopLiftsDegradedMode: with the probe loop on, the
// server recovers from a transient disk fault by itself — no client
// intervention — and the eviction janitor holds off while degraded.
func TestServerProbeLoopLiftsDegradedMode(t *testing.T) {
	const rows = 32
	dir := t.TempDir()
	// Seed table, create frame, then the first event's fsync fails.
	inj := fault.NewInjector(1, fault.Rule{
		Op: fault.OpSync, Path: "wal-", After: 2, Count: 1,
		Fault: fault.Fault{Err: syscall.ENOSPC},
	})
	backend := openFaultBackend(t, dir, inj, rows, persist.SyncAlways)
	e := engine.New(backend, engine.Options{})
	srv, err := server.New(e, server.Options{Persist: backend, ProbeInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close(); backend.Close() })
	c, err := client.New(ts.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	sess, err := c.CreateSession(ctx, "auto", false)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Arrivals(workload.Steady, 2, rows, 5)
	_, err = sess.Join(ctx, arrivals[0].Query)
	wantCode(t, err, api.CodeAckIndeterminate)

	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe loop never lifted degraded mode")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := sess.Join(ctx, arrivals[1].Query); err != nil {
		t.Fatalf("join after self-recovery: %v", err)
	}
	if _, faults := inj.Stats(); faults == 0 {
		t.Fatal("the sync rule injected nothing")
	}
}

// TestFailedDropFailsDelete: a DELETE whose drop frame does not reach
// the disk — its write or its fsync fails — answers ack_indeterminate,
// not 204, and degrades the backend, under SyncAlways and under an
// interval policy alike. The session is gone from memory; a probe
// flushes the drop, and a reopen does not bring it back.
func TestFailedDropFailsDelete(t *testing.T) {
	const rows = 32
	// The log's writes are the seed table, the create frame, one event
	// and the drop. Under SyncAlways each is fsynced; under an hour's
	// interval only the create and the drop are, as they wait for it.
	for _, tc := range []struct {
		sync  persist.SyncPolicy
		op    fault.Op
		after int
	}{
		{persist.SyncAlways, fault.OpWrite, 3},
		{persist.SyncAlways, fault.OpSync, 3},
		{persist.SyncEvery(time.Hour), fault.OpWrite, 3},
		{persist.SyncEvery(time.Hour), fault.OpSync, 1},
	} {
		t.Run(tc.sync.String()+"/"+tc.op.String(), func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.NewInjector(1, fault.Rule{
				Op: tc.op, Path: "wal-", After: tc.after, Count: 1,
				Fault: fault.Fault{Err: syscall.EIO},
			})
			backend := openFaultBackend(t, dir, inj, rows, tc.sync)
			e := engine.New(backend, engine.Options{})
			srv, err := server.New(e, server.Options{Persist: backend, ProbeInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			c, err := client.New(ts.URL, client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			sess, err := c.CreateSession(ctx, "gone", false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Join(ctx, workload.Arrivals(workload.Steady, 1, rows, 3)[0].Query); err != nil {
				t.Fatal(err)
			}
			wantCode(t, sess.Close(ctx), api.CodeAckIndeterminate)
			if _, faults := inj.Stats(); faults != 1 {
				t.Fatalf("the drop rule fired %d times, want once", faults)
			}
			if !backend.Degraded() {
				t.Fatal("backend not degraded after a failed drop")
			}
			if m := backend.Metrics(); m.PendingAppends != 1 {
				t.Fatalf("%d frames pending after a failed drop, want the drop's", m.PendingAppends)
			}
			if _, err := sess.Status(ctx, false); err == nil {
				t.Fatal("the session outlived its failed DELETE in memory")
			}
			if err := backend.Probe(); err != nil {
				t.Fatal(err)
			}
			ts.Close()
			srv.Close()
			if err := backend.Close(); err != nil {
				t.Fatal(err)
			}

			backend2 := openBackend(t, dir, 1, rows, persist.SyncAlways)
			c2, srv2, ts2 := durableLoopback(t, backend2)
			t.Cleanup(func() { ts2.Close(); srv2.Close(); backend2.Close() })
			rec, err := c2.Recovery(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Sessions != 0 {
				t.Fatalf("recovered %v after the drop was flushed", rec.RecoveredSessions)
			}
		})
	}
}

// TestSessionEventTimeoutIsTyped: a client deadline that expires while
// the event waits in the mailbox comes back as context.DeadlineExceeded
// — and once wrapped by a transport it is the typed, retryable (but
// fate-unknown) timeout. Here the posting path itself returns the raw
// context error; the mapping is the error contract's timeout row.
func TestSessionEventTimeoutIsTyped(t *testing.T) {
	inst := db.NewInstance()
	workload.UserTable(inst, 16)
	e := engine.New(inst, engine.Options{})
	srv, err := server.New(e, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c, err := client.New(ts.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, "t", false)
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	_, err = sess.Join(short, workload.ChainQuery(0, 0, 16))
	if err == nil {
		t.Fatal("join with an expired deadline succeeded")
	}
	// The expired deadline fails on the client side before the request
	// leaves; it must NOT be fate-known (the server may have seen it in
	// the general case).
	if client.FateKnown(err) {
		t.Fatalf("client-side deadline error %v must not be fate-known", err)
	}
}
