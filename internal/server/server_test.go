package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"entangled/internal/api"
	"entangled/internal/client"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/server"
	"entangled/internal/stream"
	"entangled/internal/workload"
)

// TestServerLoopbackIntegration: batches over HTTP/JSON and over the
// binary protocol, and two churning sessions, one on each, run at once
// on ONE sharded store, and the operational surface counts the traffic
// of both protocols once. What each answer must be is the lattice's
// (lattice_test.go).
func TestServerLoopbackIntegration(t *testing.T) {
	const rows, batches, perBatch, events = 64, 6, 8, 48
	httpC, binC, _ := newDualLoopback(t, workload.NewStore(4, rows, 0), server.Options{})
	clients := []*client.Client{httpC, binC}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, batches+2)
	for b := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs := make([]client.Request, perBatch)
			for j := range reqs {
				reqs[j] = client.Request{Queries: workload.JoinedDeadEnd(workload.ListQueriesAt(4+(b+j)%9, (b*perBatch+j)%rows))}
			}
			_, err := clients[b%2].CoordinateBatch(ctx, reqs)
			errs <- err
		}()
	}
	for i, name := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := churnSession(ctx, clients[i], name, false, workload.Arrivals(workload.Churn, events, rows, int64(7+4*i)))
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The operational surface must account for the traffic (from both
	// protocols: the serving path is shared, so the counters are too).
	m, err := httpC.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(batches * perBatch); m.Coordinate.Requests != want {
		t.Fatalf("metrics: %d coordinate requests, want %d", m.Coordinate.Requests, want)
	}
	if m.Coordinate.Batches < 1 || m.Coordinate.Batches > m.Coordinate.Requests {
		t.Fatalf("metrics: implausible batch count %d for %d requests", m.Coordinate.Batches, m.Coordinate.Requests)
	}
	if m.Sessions.Open != 2 || len(m.Sessions.PerSession) != 2 {
		t.Fatalf("metrics: %d open sessions (%d detailed), want 2", m.Sessions.Open, len(m.Sessions.PerSession))
	}
	for _, sc := range m.Sessions.PerSession {
		if sc.DBQueries <= 0 || sc.Events != events {
			t.Fatalf("metrics: session %s counters %+v implausible (want %d events)", sc.ID, sc, events)
		}
	}
	if m.PlanCache == nil || m.PlanCache.HitRate <= 0.5 {
		t.Fatalf("metrics: plan cache %+v, want a warm cache", m.PlanCache)
	}
	for proto, hc := range map[string]*client.Client{"HTTP": httpC, "binary": binC} {
		h, err := hc.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Status != "ok" || h.Sessions != 2 {
			t.Fatalf("%s health %+v, want ok with 2 sessions", proto, h)
		}
	}
}

// TestServerSessionLifecycle covers create/duplicate/status/delete and
// the idle janitor.
func TestServerSessionLifecycle(t *testing.T) {
	store := workload.NewStore(1, 8, 0)
	c, _, srv := newDualLoopback(t, store, server.Options{})
	ctx := context.Background()

	sess, err := c.CreateSession(ctx, "room", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "room", false); err == nil {
		t.Fatal("duplicate session name accepted")
	} else {
		var ce *client.Error
		if !errors.As(err, &ce) || ce.Code != "session_exists" || ce.Status != 409 {
			t.Fatalf("duplicate create: %v, want session_exists/409", err)
		}
	}
	// Generated names must not collide with taken ones.
	gen, err := c.CreateSession(ctx, "", false)
	if err != nil || gen.ID == "" || gen.ID == "room" {
		t.Fatalf("generated session: %v %v", gen, err)
	}

	up, err := sess.Join(ctx, workload.ChainQuery(0, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !up.Admitted || up.TeamSize != 1 || up.Stats.DBQueries <= 0 {
		t.Fatalf("join update %+v implausible", up)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Status(ctx, false); err == nil {
		t.Fatal("status of deleted session succeeded")
	} else {
		var ce *client.Error
		if !errors.As(err, &ce) || ce.Code != "session_not_found" || ce.Status != 404 {
			t.Fatalf("deleted status: %v, want session_not_found/404", err)
		}
	}

	// The generated session goes idle. A janitor pass whose clock is
	// short of the 5-minute idle timeout keeps it, one past evicts it,
	// and /metrics (which is not a touch) counts the eviction.
	evicted := func(idle time.Duration) api.SessionMetrics {
		t.Helper()
		srv.EvictIdle(time.Now().Add(idle))
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return m.Sessions
	}
	if m := evicted(4 * time.Minute); m.Evicted != 0 || m.Open != 1 {
		t.Fatalf("metrics after a pass 4 minutes on: %+v, want the session kept", m)
	}
	if m := evicted(5*time.Minute + time.Second); m.Evicted != 1 || m.Created != 2 || m.Open != 0 {
		t.Fatalf("metrics after a pass past the idle timeout: %+v, want the session evicted", m)
	}
	if _, err := gen.Status(ctx, false); err == nil {
		t.Fatal("evicted session still answers status")
	}
}

// gatedStore is a db.Check that holds every query until release is
// closed; held counts the queries waiting at the gate.
type gatedStore struct {
	held    atomic.Int64
	release chan struct{}
}

func (g *gatedStore) Check(string) error {
	g.held.Add(1)
	<-g.release
	return nil
}

// newGatedLoopback boots a server with two batch workers over a gated
// store and returns an HTTP client, the gate, and the function that
// opens it (also run at cleanup, so no query is left waiting).
func newGatedLoopback(t *testing.T) (*client.Client, *gatedStore, func()) {
	t.Helper()
	g := &gatedStore{release: make(chan struct{})}
	srv, err := server.New(engine.New(db.Guard(workload.NewStore(1, 8, 0), g), engine.Options{Workers: 2}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	open := sync.OnceFunc(func() { close(g.release) })
	t.Cleanup(func() { open(); ts.Close(); srv.Close() })
	c, err := client.New(ts.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c, g, open
}

// awaitHeld waits until n queries wait at the gate.
func (g *gatedStore) awaitHeld(t *testing.T, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); g.held.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d queries at the gate, want %d", g.held.Load(), n)
		}
	}
}

// TestServerBackpressure overflows both bounded buffers at their real
// sizes while the store answers nothing: a session's mailbox of 64, and
// the batch path's queue of 4,096 behind its two held workers. The
// overflow is refused with a typed, retryable, fate-known error, and
// everything admitted is served once the store answers.
func TestServerBackpressure(t *testing.T) {
	ctx := context.Background()
	t.Run("mailbox", func(t *testing.T) {
		c, gate, open := newGatedLoopback(t)
		sess, err := c.CreateSession(ctx, "slow", false)
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 66)
		join := func(i int) {
			go func() {
				_, err := sess.Join(ctx, workload.ChainQuery(i, 0, 8))
				errs <- err
			}()
		}
		join(0)
		gate.awaitHeld(t, 1)
		// The held join keeps the turn; of the 65 behind it, 64 fill the
		// mailbox and one is refused. Nothing else can end before the
		// gate opens.
		for i := 1; i <= 65; i++ {
			join(i)
		}
		refused := <-errs
		if !errors.Is(refused, api.ErrMailboxFull) || !client.IsRetryable(refused) || !client.FateKnown(refused) {
			t.Fatalf("join past the mailbox: %v, want mailbox_full, retryable and fate-known", refused)
		}
		open()
		for i := 0; i < 65; i++ {
			if err := <-errs; err != nil {
				t.Errorf("a join in the mailbox failed: %v", err)
			}
		}
	})
	t.Run("queue", func(t *testing.T) {
		c, gate, open := newGatedLoopback(t)
		type result struct {
			resps []client.Response
			err   error
		}
		results := make(chan result, 5)
		send := func(b int) {
			reqs := make([]client.Request, 1024)
			for i := range reqs {
				reqs[i] = client.Request{ID: fmt.Sprintf("%d.%d", b, i), Queries: workload.ListQueriesAt(2, i%8)}
			}
			go func() {
				resps, err := c.CoordinateBatch(ctx, reqs)
				results <- result{resps, err}
			}()
		}
		send(0)
		gate.awaitHeld(t, 2) // each worker holds one request
		for b := 1; b < 5; b++ {
			send(b)
		}
		// 1,022 refusals mean the queue is full and every request has
		// been submitted: 2 held + 4,096 queued + 1,022 refused = 5,120.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			m, err := c.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if m.Coordinate.Rejected >= 1022 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d requests refused, want 1,022", m.Coordinate.Rejected)
			}
		}
		open()
		var served, overloaded int
		for range 5 {
			r := <-results
			if r.err != nil {
				t.Fatal(r.err)
			}
			for _, resp := range r.resps {
				switch {
				case resp.Err == nil:
					served++
				case errors.Is(resp.Err, api.ErrOverloaded) && client.IsRetryable(resp.Err) && client.FateKnown(resp.Err):
					overloaded++
				default:
					t.Fatalf("request %s: %v", resp.ID, resp.Err)
				}
			}
		}
		if served != 4098 || overloaded != 1022 {
			t.Fatalf("%d served and %d overloaded, want 4,098 and 1,022", served, overloaded)
		}
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Coordinate.Rejected != 1022 {
			t.Fatalf("metrics count %d requests refused, want each of the 1,022 once", m.Coordinate.Rejected)
		}
	})
}

// TestMetricsAnswerWhileAnEventWaits: /metrics reads each session's
// counters from a copy the session takes after each event, so it
// answers, listing the session, while one of the session's events is
// held in a store that answers nothing.
func TestMetricsAnswerWhileAnEventWaits(t *testing.T) {
	c, gate, open := newGatedLoopback(t)
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, "held", false)
	if err != nil {
		t.Fatal(err)
	}
	joined := make(chan error, 1)
	go func() {
		_, err := sess.Join(ctx, workload.ChainQuery(0, 0, 8))
		joined <- err
	}()
	gate.awaitHeld(t, 1)
	mctx, cancel := context.WithTimeout(ctx, time.Second)
	m, err := c.Metrics(mctx)
	cancel()
	if err != nil {
		t.Fatalf("/metrics while an event waits on the store: %v", err)
	}
	if len(m.Sessions.PerSession) != 1 || m.Sessions.PerSession[0].ID != "held" {
		t.Fatalf("/metrics sessions %+v, want held", m.Sessions.PerSession)
	}
	open()
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
}

// stallingStore is a db.Check that blocks the first query any request
// issues (the §4 walk queries through SolveUnder alone) until the test
// closes release, and closes blocked once that query is waiting.
type stallingStore struct {
	asked   atomic.Int64 // queries that reached the store, the held one included
	first   atomic.Bool
	blocked chan struct{}
	release chan struct{}
}

func (s *stallingStore) Check(string) error {
	s.asked.Add(1)
	if s.first.CompareAndSwap(false, true) {
		close(s.blocked)
		<-s.release
	}
	return nil
}

// TestStalledRequestDoesNotHoldUpALaterOne: a batch request whose store
// query stalls holds one worker and nothing else — a later call is
// served by another worker while the first is still blocked, and both
// answer what the engine answers in-process.
func TestStalledRequestDoesNotHoldUpALaterOne(t *testing.T) {
	store := &stallingStore{blocked: make(chan struct{}), release: make(chan struct{})}
	srv, err := server.New(engine.New(db.Guard(workload.NewStore(1, 16, 0), store), engine.Options{Workers: 2}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	c, err := client.New(ts.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := engine.New(workload.NewStore(1, 16, 0), engine.Options{})
	check := func(name string, qs []eq.Query, got *coord.Result) {
		t.Helper()
		want, err := ref.Coordinate(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Set, want.Set) || !reflect.DeepEqual(got.Values, want.Values) || got.DBQueries != want.DBQueries {
			t.Fatalf("%s: served %+v, in-process %+v", name, got, want)
		}
	}

	qa, qb := workload.ListQueriesAt(4, 0), workload.ListQueriesAt(4, 1)
	type answer struct {
		res *coord.Result
		err error
	}
	a := make(chan answer, 1)
	go func() {
		res, err := c.Coordinate(context.Background(), qa)
		a <- answer{res, err}
	}()
	<-store.blocked

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rb, err := c.Coordinate(ctx, qb)
	if err != nil {
		close(store.release)
		t.Fatalf("call B behind a stalled call A: %v", err)
	}
	select {
	case <-a:
		t.Fatal("call A answered before its stalled query was released")
	default:
	}
	check("B", qb, rb)

	close(store.release)
	ra := <-a
	if ra.err != nil {
		t.Fatalf("call A: %v", ra.err)
	}
	check("A", qa, ra.res)
}

// TestCallerLeavingMidWalkStopsItsRequest: a batch request whose caller
// leaves while the request's first store query is held — an HTTP client
// that cancels, a binary connection that closes — asks the store
// nothing more once that query returns. The worker runs under the
// caller's context, not one of its own that would run the walk to the
// end for nobody.
func TestCallerLeavingMidWalkStopsItsRequest(t *testing.T) {
	for _, proto := range []string{"http", "binary"} {
		t.Run(proto, func(t *testing.T) {
			store := &stallingStore{blocked: make(chan struct{}), release: make(chan struct{})}
			httpC, binC, srv := newDualLoopback(t, db.Guard(workload.NewStore(1, 16, 0), store), server.Options{})
			open := sync.OnceFunc(func() { close(store.release) })
			t.Cleanup(open) // before the server's own cleanup, which drains the workers
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c, leave := httpC, cancel
			if proto == "binary" {
				c, leave = binC, func() { binC.Close() }
			}
			answered := make(chan error, 1)
			go func() {
				_, err := c.Coordinate(ctx, workload.ListQueries(8, 16))
				answered <- err
			}()
			<-store.blocked
			leave()
			if err := <-answered; err == nil {
				t.Fatal("a caller that left was answered")
			}
			// The server has seen the caller go once its handler has
			// settled the request; the worker still holds the query.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				m, err := httpC.Metrics(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if m.Coordinate.Requests == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the server never settled the abandoned request: %+v", m.Coordinate)
				}
			}
			open()
			srv.Close() // waits for the worker to finish the request
			if n := store.asked.Load(); n != 1 {
				t.Fatalf("the store was asked %d queries, want only the one in flight when the caller left", n)
			}
		})
	}
}

// TestServerDrain checks the shutdown contract: after Close, batch
// requests are rejected with the draining code and session work is
// gone, but the server still answers health probes (status
// "draining").
func TestServerDrain(t *testing.T) {
	store := workload.NewStore(1, 8, 0)
	c, _, srv := newDualLoopback(t, store, server.Options{})
	ctx := context.Background()

	sess, err := c.CreateSession(ctx, "doomed", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Join(ctx, workload.ChainQuery(0, 0, 8)); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	if _, err := c.Coordinate(ctx, workload.ListQueriesAt(4, 0)); err == nil {
		t.Fatal("coordinate succeeded on a draining server")
	} else {
		var ce *client.Error
		if !errors.As(err, &ce) || ce.Code != "draining" {
			t.Fatalf("drain rejection: %v, want code draining", err)
		}
	}
	if _, err := c.CreateSession(ctx, "late", false); err == nil {
		t.Fatal("session created on a draining server")
	}
	if _, err := sess.Join(ctx, workload.ChainQuery(0, 1, 8)); err == nil {
		t.Fatal("join succeeded on a drained session")
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("health status %q, want draining", h.Status)
	}
}

// TestServerUnsafeArrivalTaxonomy checks that admission outcomes keep
// their types across the wire: a rejected unsafe arrival satisfies
// errors.Is(err, coord.ErrUnsafeArrival); with park-and-retry the same
// arrival parks (202, no error) and is admitted after the conflicting
// departure; duplicate and unknown IDs map to their stream sentinels.
func TestServerUnsafeArrivalTaxonomy(t *testing.T) {
	store := workload.NewStore(1, 8, 0)
	c, _, _ := newDualLoopback(t, store, server.Options{})
	ctx := context.Background()

	mk := func(id, user string, posts ...string) eq.Query {
		q := eq.Query{
			ID:   id,
			Head: []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(user)), eq.V("x"))},
			Body: []eq.Atom{eq.NewAtom("T", eq.V("k"), eq.C(eq.Value("c0")))},
		}
		for _, p := range posts {
			q.Post = append(q.Post, eq.NewAtom("R", eq.C(eq.Value(p)), eq.V("y")))
		}
		return q
	}

	for _, park := range []bool{false, true} {
		name := fmt.Sprintf("taxonomy-park=%v", park)
		sess, err := c.CreateSession(ctx, name, park)
		if err != nil {
			t.Fatal(err)
		}
		// Two queries whose heads both unify with a later post R(A, y):
		// admitting the poster is unsafe (fanout 2).
		if _, err := sess.Join(ctx, mk("qa", "A")); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Join(ctx, mk("qa2", "A")); err != nil {
			t.Fatal(err)
		}
		up, err := sess.Join(ctx, mk("qp", "B", "A"))
		if park {
			if err != nil {
				t.Fatalf("%s: parked join errored: %v", name, err)
			}
			if !up.Parked || up.Admitted {
				t.Fatalf("%s: update %+v, want parked and not admitted", name, up)
			}
			// The departure clears the fanout conflict; the parked query
			// must be admitted by the retry.
			if _, err := sess.Leave(ctx, "qa2"); err != nil {
				t.Fatal(err)
			}
			st, err := sess.Status(ctx, false)
			if err != nil {
				t.Fatal(err)
			}
			if st.Live != 2 || st.Parked != 0 {
				t.Fatalf("%s: status %+v, want the parked query admitted", name, st)
			}
		} else {
			if !errors.Is(err, coord.ErrUnsafeArrival) {
				t.Fatalf("%s: unsafe join error %v does not wrap coord.ErrUnsafeArrival", name, err)
			}
			var ce *client.Error
			if !errors.As(err, &ce) || ce.Code != coord.CodeUnsafeArrival || ce.Status != 409 {
				t.Fatalf("%s: unsafe join %v, want %s/409", name, err, coord.CodeUnsafeArrival)
			}
		}

		if _, err := sess.Join(ctx, mk("qa", "C")); !errors.Is(err, stream.ErrDuplicateID) {
			t.Fatalf("%s: duplicate join error %v does not wrap stream.ErrDuplicateID", name, err)
		}
		if _, err := sess.Leave(ctx, "nobody"); !errors.Is(err, stream.ErrUnknownID) {
			t.Fatalf("%s: unknown leave error %v does not wrap stream.ErrUnknownID", name, err)
		}
	}
}
