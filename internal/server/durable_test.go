package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"entangled/internal/client"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/persist"
	"entangled/internal/server"
	"entangled/internal/workload"
)

// openBackend opens a durable backend over dir, seeding a fresh
// directory with the canonical rows-row workload table.
func openBackend(t *testing.T, dir string, shards, rows int, sync persist.SyncPolicy) *persist.Backend {
	t.Helper()
	b, err := persist.Open(dir, persist.Options{Shards: shards, Sync: sync})
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

// durableLoopback boots a loopback server over the backend. The
// returned httptest server and coordination server are NOT auto-closed:
// durability tests control the shutdown order (drain vs hard stop)
// themselves.
func durableLoopback(t *testing.T, b *persist.Backend) (*client.Client, *server.Server, *httptest.Server) {
	t.Helper()
	e := engine.New(b, engine.Options{})
	srv, err := server.New(e, server.Options{Persist: b})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	c, err := client.New(ts.URL, client.Options{})
	if err != nil {
		ts.Close()
		srv.Close()
		t.Fatal(err)
	}
	return c, srv, ts
}

// churn drives one session through arrivals over the wire, tracking the
// outcome of every acknowledged event: the IDs that should be live at
// the end and how many events were admitted or parked (i.e. journaled).
type churnTrack struct {
	name    string
	acked   int             // events acked as admitted or parked
	live    map[string]bool // expected surviving query IDs
	arrived []workload.Arrival
}

func churnSession(ctx context.Context, c *client.Client, name string, park bool, arrivals []workload.Arrival) (*churnTrack, error) {
	sess, err := c.CreateSession(ctx, name, park)
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", name, err)
	}
	tr := &churnTrack{name: name, live: map[string]bool{}, arrived: arrivals}
	for i, a := range arrivals {
		if a.Leave {
			up, err := sess.Leave(ctx, a.ID)
			if err != nil {
				var ce *client.Error
				if errors.As(err, &ce) {
					continue // unknown ID etc: rejected, not journaled
				}
				return nil, fmt.Errorf("%s event %d: %w", name, i, err)
			}
			if up.Admitted {
				tr.acked++
				delete(tr.live, a.ID)
			}
			continue
		}
		up, err := sess.Join(ctx, a.Query)
		if err != nil {
			var ce *client.Error
			if errors.As(err, &ce) {
				continue // rejected arrival: no state change, not journaled
			}
			return nil, fmt.Errorf("%s event %d: %w", name, i, err)
		}
		if up.Admitted || up.Parked {
			tr.acked++
			tr.live[a.Query.ID] = true
		}
	}
	return tr, nil
}

// liveIDs returns the sorted expected survivors.
func (tr *churnTrack) liveIDs() []string {
	ids := make([]string, 0, len(tr.live))
	for id := range tr.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// checkRecovered compares one recovered session against its pre-stop
// tracking and against a fresh batch SCCCoordinate over its live set:
// same surviving query IDs, and byte-for-byte the same quiesced team,
// values and trace.
func checkRecovered(t *testing.T, ctx context.Context, c *client.Client, store db.Store, tr *churnTrack) {
	t.Helper()
	st, err := c.Session(tr.name).Status(ctx, true)
	if err != nil {
		t.Fatalf("recovered %s: status: %v", tr.name, err)
	}
	gotIDs := make([]string, 0, len(st.Queries))
	for _, q := range st.Queries {
		gotIDs = append(gotIDs, q.ID)
	}
	sort.Strings(gotIDs)
	if want := tr.liveIDs(); !reflect.DeepEqual(gotIDs, want) {
		t.Fatalf("recovered %s: live queries %v, want %v", tr.name, gotIDs, want)
	}
	btr := &coord.Trace{}
	want, err := coord.SCCCoordinate(st.Queries, store, coord.Options{Trace: btr})
	if err != nil {
		t.Fatalf("batch over recovered %s live set: %v", tr.name, err)
	}
	if (st.Result == nil) != (want == nil) {
		t.Fatalf("recovered %s: result presence: wire %v, batch %v", tr.name, st.Result, want)
	}
	if st.Result != nil {
		if !reflect.DeepEqual(st.Result.Set, want.Set) {
			t.Fatalf("recovered %s: team %v != %v", tr.name, st.Result.Set, want.Set)
		}
		if !reflect.DeepEqual(st.Result.Values, want.Values) {
			t.Fatalf("recovered %s: values differ:\nwire  %v\nbatch %v", tr.name, st.Result.Values, want.Values)
		}
		if err := coord.Verify(st.Queries, st.Result.Set, st.Result.Values, store); err != nil {
			t.Fatalf("recovered %s: witness fails Definition 1: %v", tr.name, err)
		}
	}
	if st.Trace == nil {
		t.Fatalf("recovered %s: no trace", tr.name)
	}
	if len(st.Trace.Components) != len(btr.Components) {
		t.Fatalf("recovered %s: %d trace components != %d", tr.name, len(st.Trace.Components), len(btr.Components))
	}
	for i := range st.Trace.Components {
		if !reflect.DeepEqual(st.Trace.Components[i], btr.Components[i]) {
			t.Fatalf("recovered %s: component %d:\nwire  %+v\nbatch %+v", tr.name, i, st.Trace.Components[i], btr.Components[i])
		}
	}
}

// TestServerDrainLosesNoAdmittedEvents is the graceful-drain guarantee
// under the race detector: concurrent sessions churn over the wire
// while the sync policy is "never" (so nothing reaches disk except
// through the drain path), the server drains, and a reopened server
// recovers every session with exactly the acked events — the drain
// flushed and fsynced every open WAL.
func TestServerDrainLosesNoAdmittedEvents(t *testing.T) {
	const rows = 48
	dir := t.TempDir()
	backend := openBackend(t, dir, 1, rows, persist.SyncNever)
	c, srv, ts := durableLoopback(t, backend)
	ctx := context.Background()

	names := []string{"drain-a", "drain-b", "drain-c"}
	tracks := make([]*churnTrack, len(names))
	var wg sync.WaitGroup
	errs := make(chan error, len(names))
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			arrivals := workload.Arrivals(workload.Churn, 40, rows, int64(13+i))
			tr, err := churnSession(ctx, c, name, i == 0, arrivals)
			if err != nil {
				errs <- err
				return
			}
			tracks[i] = tr
		}(i, name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Graceful drain, then release the data directory.
	ts.Close()
	srv.Close()
	if err := backend.Close(); err != nil {
		t.Fatalf("closing backend after drain: %v", err)
	}

	// Reopen: every session must come back with every acked event.
	backend2 := openBackend(t, dir, 1, rows, persist.SyncNever)
	c2, srv2, ts2 := durableLoopback(t, backend2)
	t.Cleanup(func() { ts2.Close(); srv2.Close(); backend2.Close() })
	rec, err := c2.Recovery(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Enabled || rec.Sessions != len(names) || rec.TornTail || rec.SessionTornTails != 0 {
		t.Fatalf("recovery status %+v: want %d clean sessions", rec, len(names))
	}
	wantEvents := 0
	for _, tr := range tracks {
		wantEvents += tr.acked
	}
	if rec.SessionEvents != wantEvents {
		t.Fatalf("recovered %d session events, want %d acked — the drain lost events", rec.SessionEvents, wantEvents)
	}
	for _, tr := range tracks {
		checkRecovered(t, ctx, c2, backend2, tr)
	}
}

// TestServerCrashRecoveryEquivalence is the acceptance property test:
// named sessions (one parking unsafe arrivals) churn through the HTTP
// server over a sharded durable store, the process hard-stops — close
// without drain, simulated by Backend.Abort — and a server reopened on
// the same data directory must recover every session to a quiesced
// state byte-for-byte equal to batch SCCCoordinate over its live set,
// while the recovered store answers identically (same bindings, same
// exact DBQueries) to an in-memory store built by replaying the same
// mutation stream.
func TestServerCrashRecoveryEquivalence(t *testing.T) {
	const (
		shards = 2
		rows   = 64
	)
	dir := t.TempDir()
	// SyncAlways: an ack means the event is fsynced, so a hard stop may
	// lose nothing acked.
	backend := openBackend(t, dir, shards, rows, persist.SyncAlways)
	c, srv, ts := durableLoopback(t, backend)
	ctx := context.Background()

	sessions := []struct {
		name string
		park bool
		seed int64
	}{
		{"crash-alpha", false, 7},
		{"crash-beta", true, 11},
		{"crash-gamma", false, 23},
	}
	tracks := make([]*churnTrack, len(sessions))
	var wg sync.WaitGroup
	errs := make(chan error, len(sessions))
	for i, sc := range sessions {
		wg.Add(1)
		go func(i int, name string, park bool, seed int64) {
			defer wg.Done()
			arrivals := workload.Arrivals(workload.Churn, 48, rows, seed)
			tr, err := churnSession(ctx, c, name, park, arrivals)
			if err != nil {
				errs <- err
				return
			}
			tracks[i] = tr
		}(i, sc.name, sc.park, sc.seed)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Hard stop: listener gone, WAL handles dropped without a sync,
	// no drain. The server is closed afterwards; its sessions'
	// journals are already dead, which the cleanup tolerates.
	ts.Close()
	backend.Abort()
	t.Cleanup(srv.Close)

	// Reopen the data directory and recover.
	backend2 := openBackend(t, dir, shards, rows, persist.SyncAlways)
	c2, srv2, ts2 := durableLoopback(t, backend2)
	t.Cleanup(func() { ts2.Close(); srv2.Close(); backend2.Close() })

	rec, err := c2.Recovery(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Enabled || rec.Sessions != len(sessions) {
		t.Fatalf("recovery status %+v: want %d sessions", rec, len(sessions))
	}
	wantEvents := 0
	for _, tr := range tracks {
		wantEvents += tr.acked
	}
	if rec.SessionEvents != wantEvents {
		t.Fatalf("recovered %d session events, want %d acked — the crash lost acked events", rec.SessionEvents, wantEvents)
	}
	sort.Strings(rec.RecoveredSessions)
	wantNames := make([]string, 0, len(sessions))
	for _, sc := range sessions {
		wantNames = append(wantNames, sc.name)
	}
	sort.Strings(wantNames)
	if !reflect.DeepEqual(rec.RecoveredSessions, wantNames) {
		t.Fatalf("recovered sessions %v, want %v", rec.RecoveredSessions, wantNames)
	}

	// Every recovered session quiesces to the batch answer.
	for _, tr := range tracks {
		checkRecovered(t, ctx, c2, backend2, tr)
	}

	// Store equivalence: the recovered durable store must answer
	// exactly like an in-memory store replayed from the same mutation
	// stream — same teams, same bindings, and the same exact DBQueries.
	mem := db.NewShardedInstance(shards)
	if err := db.ApplyAll(mem, workload.UserTableMutations(rows)); err != nil {
		t.Fatal(err)
	}
	eDur := engine.New(backend2, engine.Options{})
	eMem := engine.New(mem, engine.Options{})
	for i := 0; i < 12; i++ {
		qs := workload.ListQueriesAt(3+i%7, (i*5)%rows)
		got, err := eDur.Coordinate(ctx, qs)
		if err != nil {
			t.Fatalf("durable coordinate %d: %v", i, err)
		}
		want, err := eMem.Coordinate(ctx, qs)
		if err != nil {
			t.Fatalf("in-memory coordinate %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d: durable result differs from in-memory replay:\ndurable %+v\nmemory  %+v", i, got, want)
		}
	}
}
