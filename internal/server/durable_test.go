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

	"entangled/internal/api"
	"entangled/internal/client"
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
	name  string
	acked int             // events acked as admitted or parked
	live  map[string]bool // expected surviving query IDs
}

func churnSession(ctx context.Context, c *client.Client, name string, park bool, arrivals []workload.Arrival) (*churnTrack, error) {
	sess, err := c.CreateSession(ctx, name, park)
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", name, err)
	}
	tr := &churnTrack{name: name, live: map[string]bool{}}
	for i, a := range arrivals {
		var up api.Update
		if a.Leave {
			up, err = sess.Leave(ctx, a.ID)
		} else {
			up, err = sess.Join(ctx, a.Query)
		}
		var ce *client.Error
		if errors.As(err, &ce) {
			continue // refused (an unknown ID, an unsafe arrival): not journaled
		} else if err != nil {
			return nil, fmt.Errorf("%s event %d: %w", name, i, err)
		}
		if up.Admitted || up.Parked { // a departure is never parked
			tr.acked++
			if a.Leave {
				delete(tr.live, a.ID)
			} else {
				tr.live[a.Query.ID] = true
			}
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

// recoveredDiff compares one recovered session against its pre-stop
// tracking and against a batch walk over its live set (againstBatch):
// the same surviving query IDs, and the same quiesced team, values and
// trace. It returns the session's status and names the first field
// that differs ("" when none does) with what it saw.
func recoveredDiff(t *testing.T, ctx context.Context, c *client.Client, store db.Store, tr *churnTrack) (*api.SessionStatus, string, string) {
	t.Helper()
	st, err := c.Session(tr.name).Status(ctx, true)
	if err != nil {
		return st, "Err", err.Error()
	}
	ids := make([]string, len(st.Queries))
	for i, q := range st.Queries {
		ids[i] = q.ID
	}
	sort.Strings(ids)
	if want := tr.liveIDs(); !reflect.DeepEqual(ids, want) {
		return st, "Queries", fmt.Sprintf("%v live, %v acked", ids, want)
	}
	f, detail, _ := againstBatch(t, st.Queries, st.Result, st.Trace, store)
	return st, f, detail
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
		if _, f, detail := recoveredDiff(t, ctx, c2, backend2, tr); f != "" {
			t.Fatalf("recovered %s: %s differs: %s", tr.name, f, detail)
		}
	}
}
