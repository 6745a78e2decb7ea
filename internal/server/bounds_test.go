package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"entangled/internal/admission"
	"entangled/internal/api"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/fault"
	"entangled/internal/persist"
	"entangled/internal/stream"
	"entangled/internal/wire"
	"entangled/internal/workload"
)

// TestServingBounds: the bounds the package documents, as numbers.
func TestServingBounds(t *testing.T) {
	if maxInflight != 256 || writeTimeout != 5*time.Second || handshakeTimeout != 10*time.Second {
		t.Fatalf("maxInflight %d, writeTimeout %v, handshakeTimeout %v; want 256, 5s, 10s", maxInflight, writeTimeout, handshakeTimeout)
	}
	s, err := New(engine.New(workload.NewStore(1, 8, 0), engine.Options{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.batch.timeout != 30*time.Second || s.opts.probeInterval != 500*time.Millisecond {
		t.Fatalf("dispatch timeout %v, probe interval %v; want 30s, 500ms", s.batch.timeout, s.opts.probeInterval)
	}
	if s.batch.weight != nil {
		t.Fatal("a server without admission weighs its tenants")
	}
}

// TestNewTakesItsOptions: a probe interval set in the options stays, a
// negative one included; with admission on, the batcher weighs tenants
// by their policy.
func TestNewTakesItsOptions(t *testing.T) {
	adm := admission.NewController(admission.Config{Tenants: map[string]admission.Policy{"vip": {Weight: 3}}})
	s, err := New(engine.New(workload.NewStore(1, 8, 0), engine.Options{}), WithProbeInterval(Options{Admission: adm}, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.opts.probeInterval != -1 {
		t.Fatalf("probe interval %v, want the -1 asked for", s.opts.probeInterval)
	}
	if s.batch.weight == nil || s.batch.weight("vip") != 3 {
		t.Fatal("the batcher does not weigh tenants by their policy")
	}
}

// TestLatencyHistogramBuckets: an observation lands in the first bucket
// whose bound it does not exceed, past the last bound in the overflow
// bucket, and the count and sum take each one.
func TestLatencyHistogramBuckets(t *testing.T) {
	bounds := []int64{50_000, 100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
		25_000_000, 50_000_000, 100_000_000, 250_000_000, 1_000_000_000}
	h := newHistogram()
	var sum int64
	for _, b := range bounds {
		h.observe(time.Duration(b))
		h.observe(time.Duration(b + 1))
		sum += 2*b + 1
	}
	snap := h.snapshot()
	if !slices.Equal(snap.BucketsNS, bounds) {
		t.Fatalf("bounds %v, want %v", snap.BucketsNS, bounds)
	}
	want := make([]int64, len(bounds)+1)
	want[0], want[len(bounds)] = 1, 1
	for i := 1; i < len(bounds); i++ {
		want[i] = 2
	}
	if !slices.Equal(snap.Counts, want) || snap.Count != 2*int64(len(bounds)) || snap.SumNS != sum {
		t.Fatalf("counts %v (count %d, sum %d), want %v (count %d, sum %d)", snap.Counts, snap.Count, snap.SumNS, want, 2*len(bounds), sum)
	}
}

// planStore is a store that reports fixed plan-cache counters.
type planStore struct {
	db.Store
	st db.PlanCacheStats
}

func (p planStore) PlanStats() db.PlanCacheStats { return p.st }

// TestPlanHitRate: the hit rate is hits over lookups, zero without one.
func TestPlanHitRate(t *testing.T) {
	for _, c := range []struct {
		hits, misses int64
		rate         float64
	}{{0, 0, 0}, {1, 0, 1}, {0, 1, 0}, {3, 1, 0.75}} {
		pc, ok := planStats(planStore{st: db.PlanCacheStats{Hits: c.hits, Misses: c.misses, Entries: 2}})
		if !ok || pc.HitRate != c.rate || pc.Hits != c.hits || pc.Misses != c.misses || pc.Entries != 2 {
			t.Errorf("%d hits, %d misses: %+v, want a hit rate of %v", c.hits, c.misses, pc, c.rate)
		}
	}
}

// TestRetryAfterHeader: a hint goes out as whole seconds, rounded up;
// no hint, no header. The envelope is JSON.
func TestRetryAfterHeader(t *testing.T) {
	for ms, want := range map[int64]string{0: "", 1: "1", 1000: "1", 1001: "2", 10_000: "10"} {
		w := httptest.NewRecorder()
		writeError(w, &api.Error{Status: 429, Code: api.CodeThrottled, RetryAfterMS: ms})
		if got := w.Header().Get("Retry-After"); got != want || w.Code != 429 || w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("a %d ms hint: Retry-After %q (status %d, %s), want %q", ms, got, w.Code, w.Header().Get("Content-Type"), want)
		}
	}
}

// faultBackend opens a durable backend over the injected filesystem in
// a fresh directory, seeded with an 8-row table.
func faultBackend(t *testing.T, inj *fault.Injector, sync persist.SyncPolicy) *persist.Backend {
	b, err := persist.Open(t.TempDir(), persist.Options{Sync: sync, FS: fault.NewFS(fault.OS, inj)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := db.ApplyAll(b, workload.UserTableMutations(8)); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestProbeLoopRunsOnlyWhenDegraded: any positive interval runs the
// loop, and a healthy backend is never probed.
func TestProbeLoopRunsOnlyWhenDegraded(t *testing.T) {
	b := faultBackend(t, nil, persist.SyncAlways)
	for _, interval := range []time.Duration{time.Nanosecond, time.Millisecond} {
		s, err := New(engine.New(b, engine.Options{}), WithProbeInterval(Options{Persist: b}, interval))
		if err != nil {
			t.Fatal(err)
		}
		if s.probeDone == nil {
			t.Fatalf("a %v probe interval runs no probe loop", interval)
		}
		time.Sleep(20 * time.Millisecond)
		s.Close()
	}
	if n := b.Metrics().Probes; n != 0 {
		t.Fatalf("a healthy backend was probed %d times", n)
	}
}

// TestCloseWaitsForTheProbe: while the backend is degraded a create is
// refused, and Close returns only once the probe loop has stopped, a
// probe in flight included, so the caller may close the backend after
// it.
func TestCloseWaitsForTheProbe(t *testing.T) {
	// The log's first fsync is the seed table's, the second the session's
	// create frame; the third, the first event's, fails and degrades the
	// backend. The probe that follows stalls in its scratch write.
	inj := fault.NewInjector(1,
		fault.Rule{Op: fault.OpSync, Path: "wal-", After: 2, Count: 1, Fault: fault.Fault{Err: syscall.EIO}},
		fault.Rule{Op: fault.OpWrite, Path: "probe.tmp", Count: 1, Fault: fault.Fault{Delay: 300 * time.Millisecond}})
	b := faultBackend(t, inj, persist.SyncAlways)
	s, err := New(engine.New(b, engine.Options{}), WithProbeInterval(Options{Persist: b}, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.reg.create("x", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.post(context.Background(), stream.Event{Kind: stream.JoinEvent, Query: workload.ChainQuery(0, 0, 8)}); err == nil {
		t.Fatal("the event whose fsync failed was acked")
	}
	if _, _, err := s.createSession(context.Background(), wire.CreateSessionReq{ID: "y"}, false); !errors.Is(err, persist.ErrDegraded) {
		t.Fatalf("a create on a degraded backend: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // a probe has begun, and stalls
	s.Close()
	select {
	case <-s.probeDone:
	default:
		t.Fatal("Close returned while a probe was still running")
	}
}

// TestCloseSyncsTheLog: a drained server's log is on stable storage
// whatever the sync policy.
func TestCloseSyncsTheLog(t *testing.T) {
	b := faultBackend(t, nil, persist.SyncNever)
	s, err := New(engine.New(b, engine.Options{}), WithProbeInterval(Options{Persist: b}, -1))
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.reg.create("x", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.post(context.Background(), stream.Event{Kind: stream.JoinEvent, Query: workload.ChainQuery(0, 0, 8)}); err != nil {
		t.Fatal(err)
	}
	before := b.Metrics().SessionSyncs
	s.Close()
	if b.Metrics().SessionSyncs == before {
		t.Fatal("Close left the event's frame unsynced")
	}
}

// TestStatusReadTouchesTheSession: reading a session's status is a
// client's touch, as an event is.
func TestStatusReadTouchesTheSession(t *testing.T) {
	s, err := New(engine.New(workload.NewStore(1, 8, 0), engine.Options{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.reg.create("x", false)
	if err != nil {
		t.Fatal(err)
	}
	h.lastUsed.Store(0)
	if _, _, err := s.sessionStatus(context.Background(), wire.StatusReq{Session: "x"}, false); err != nil || h.lastUsed.Load() == 0 {
		t.Fatalf("a status read: %v, touched at %d", err, h.lastUsed.Load())
	}
}

// TestNewFailsOnAnUnrecoverableLog: a session journal whose event does
// not decode fails New with the backend's error, and what New had
// started is stopped: no goroutine of it outlives the call.
func TestNewFailsOnAnUnrecoverableLog(t *testing.T) {
	dir := t.TempDir()
	b, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyAll(b, workload.UserTableMutations(8)); err != nil {
		t.Fatal(err)
	}
	j, err := b.CreateSessionJournal("s", false)
	if err != nil {
		t.Fatal(err)
	}
	q := eq.Query{ID: "a", Head: []eq.Atom{eq.NewAtom("R", eq.V("x"))}, Body: []eq.Atom{eq.NewAtom("", eq.V("x"))}}
	if err := j.Append(stream.Event{Kind: stream.JoinEvent, Query: q}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	re, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	e := engine.New(re, engine.Options{})
	before := runtime.NumGoroutine()
	s, err := New(e, WithProbeInterval(Options{Persist: re}, time.Millisecond))
	if s != nil || err == nil || !strings.Contains(err.Error(), `session journal "s": decoding event`) {
		t.Fatalf("New over the log: %v, %v; want no server and the journal's error", s, err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed New, %d before", runtime.NumGoroutine(), before)
		}
	}
}
