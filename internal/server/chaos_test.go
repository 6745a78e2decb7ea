//go:build chaos_integration

// Chaos soak: the PR-8 acceptance property. Churny sessions drive both
// protocols against a server whose filesystem AND network are fault-
// injected, the process is repeatedly hard-killed and recovered, and
// after every cycle the recovered state must equal the state observed
// just before the kill — byte-for-byte against a batch SCCCoordinate
// over each session's live set. Along the way every failed ack must be
// a typed, retryable error (no lies, no untyped failures), degraded
// mode must be entered on injected fsync failures and visible in
// /healthz, and it must exit once a probe write succeeds.
//
// Run with: go test -tags chaos_integration -race ./internal/server/
package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"sort"
	"syscall"
	"testing"
	"time"

	"entangled/internal/api"
	"entangled/internal/client"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/fault"
	"entangled/internal/persist"
	"entangled/internal/server"
	"entangled/internal/workload"
)

const (
	chaosCycles   = 14 // kill/recover cycles (acceptance floor: 12)
	chaosSessions = 3
	chaosRows     = 40
	chaosEvents   = 16 // arrivals per session per cycle
)

// diskRules is the seeded per-cycle disk-fault schedule: churn faults
// armed from the start of the cycle, and store faults added just
// before its store-WAL writes. Every rule is Count-bounded so each
// cycle injects a fixed, reproducible budget of faults and the disk is
// provably healthy again once they are spent. Sessions and the store
// share one log, "wal-NNN.log", so a churn rule's After counts the
// session frames' writes or fsyncs and a store rule's those after it
// was added.
func diskRules(cycle int) (churn, store []fault.Rule) {
	switch cycle % 4 {
	case 0:
		if cycle == 0 {
			return nil, nil // first cycle seeds the store; keep it clean
		}
		// fsync failure mid-churn on a session frame.
		return []fault.Rule{{Op: fault.OpSync, Path: "wal-", After: 3, Count: 1,
			Fault: fault.Fault{Err: syscall.EIO}}}, nil
	case 1:
		// Write latency on session frames, then a torn write + ENOSPC
		// on a store frame (the per-cycle store mutations exercise it).
		return []fault.Rule{{Op: fault.OpWrite, Path: "wal-", After: 6, Count: 2,
				Fault: fault.Fault{Delay: 200 * time.Microsecond}}},
			[]fault.Rule{{Op: fault.OpWrite, Path: "wal-", After: 1, Count: 1,
				Fault: fault.Fault{Err: syscall.ENOSPC, Torn: 3}}}
	case 2:
		// Write errors on session frames, two in a row.
		return []fault.Rule{{Op: fault.OpWrite, Path: "wal-", After: 5, Count: 2,
			Fault: fault.Fault{Err: syscall.EIO}}}, nil
	default:
		// fsync failure on a store frame.
		return nil, []fault.Rule{{Op: fault.OpSync, Path: "wal-", After: 1, Count: 1,
			Fault: fault.Fault{Err: syscall.EIO}}}
	}
}

// wireNetRules fault the binary listener: corruption (which the CRC
// frames must catch and turn into a dropped connection, never a wrong
// answer), resets, and stalls.
func wireNetRules(cycle int) []fault.Rule {
	switch cycle % 4 {
	case 1:
		return []fault.Rule{{Op: fault.OpConnWrite, After: 6, Count: 1,
			Fault: fault.Fault{Corrupt: true}}}
	case 2:
		return []fault.Rule{{Op: fault.OpConnRead, After: 10, Count: 1,
			Fault: fault.Fault{Err: syscall.ECONNRESET}}}
	case 3:
		return []fault.Rule{
			{Op: fault.OpConnRead, After: 4, Count: 3,
				Fault: fault.Fault{Delay: time.Millisecond}},
			{Op: fault.OpConnWrite, After: 14, Count: 1,
				Fault: fault.Fault{Err: syscall.EPIPE}},
		}
	}
	return nil
}

// httpNetRules fault the HTTP listener: drops and stalls only — HTTP
// has no frame CRC, so corruption there could make the transport lie
// rather than fail, which is exactly what the binary protocol's frames
// exist to prevent.
func httpNetRules(cycle int) []fault.Rule {
	if cycle%3 != 2 {
		return nil
	}
	return []fault.Rule{{Op: fault.OpConnRead, After: 20, Count: 1,
		Fault: fault.Fault{Err: syscall.ECONNRESET}}}
}

// triState tracks one session's per-query-ID knowledge: confirmed
// live, confirmed gone, or (absent from both) unknown — the fate of an
// event whose ack failed indeterminately or vanished with the
// connection.
type triState struct {
	live map[string]bool
	gone map[string]bool
}

func newTriState() *triState {
	return &triState{live: map[string]bool{}, gone: map[string]bool{}}
}

func (ts *triState) unknown(id string) { delete(ts.live, id); delete(ts.gone, id) }

// ackFate classifies one event's outcome and fails the test on any
// untyped or non-retryable failure that is not a semantic rejection.
// Returns "acked", "rejected" (fate known, nothing changed), or
// "unknown".
func ackFate(t *testing.T, err error) string {
	t.Helper()
	if err == nil {
		return "acked"
	}
	var ce *client.Error
	if errors.As(err, &ce) {
		switch ce.Code {
		case coord.CodeUnsafeArrival, api.CodeDuplicateID, api.CodeUnknownID,
			api.CodeSessionExists, api.CodeSessionNotFound:
			return "rejected" // semantic rejection: typed, final, fate known
		}
		if !client.IsRetryable(ce) {
			t.Fatalf("failed ack is typed but not retryable: %v", ce)
		}
		if client.FateKnown(ce) {
			return "rejected"
		}
		return "unknown"
	}
	if !client.IsRetryable(err) {
		t.Fatalf("untyped, non-retryable error escaped to the client: %v", err)
	}
	return "unknown" // transport drop: the request's fate is unknown
}

func TestChaosSoakNoAckedWriteEverLost(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	names := make([]string, chaosSessions)
	for i := range names {
		names[i] = fmt.Sprintf("chaos-%c", 'a'+i)
	}
	// observed[name] is the live set read just before the previous kill;
	// the next cycle's recovery must reproduce it exactly.
	observed := map[string][]string{}
	var (
		degradedSeen      bool  // degraded mode observed in /healthz
		indeterminateSeen bool  // at least one indeterminate ack
		diskFaults        int64 // faults actually fired, summed over cycles
		netFaults         int64
	)

	for cycle := 0; cycle < chaosCycles; cycle++ {
		churnRules, storeRules := diskRules(cycle)
		diskInj := fault.NewInjector(int64(1000+cycle), churnRules...)
		diskInj.Disarm() // recovery replay and reads run clean
		wireInj := fault.NewInjector(int64(2000+cycle), wireNetRules(cycle)...)
		wireInj.Disarm()
		httpInj := fault.NewInjector(int64(3000+cycle), httpNetRules(cycle)...)
		httpInj.Disarm()

		backend, err := persist.Open(dir, persist.Options{
			Sync: persist.SyncAlways,
			FS:   fault.NewFS(fault.OS, diskInj),
		})
		if err != nil {
			t.Fatalf("cycle %d: open: %v", cycle, err)
		}
		if backend.Fresh() {
			if err := db.ApplyAll(backend, workload.UserTableMutations(chaosRows)); err != nil {
				t.Fatal(err)
			}
			if err := backend.Apply(db.MCreate("Chaos", 0, "cycle", "n")); err != nil {
				t.Fatal(err)
			}
		}
		e := engine.New(backend, engine.Options{})
		// No probe loop: the soak drives probes itself so the
		// degraded windows are deterministic and observable.
		srv, err := server.New(e, server.WithProbeInterval(server.Options{Persist: backend}, -1))
		if err != nil {
			t.Fatalf("cycle %d: server: %v", cycle, err)
		}
		ts2 := httptest.NewUnstartedServer(srv)
		ts2.Listener = fault.NewListener(ts2.Listener, httpInj)
		ts2.Start()
		wireLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.ServeWire(fault.NewListener(wireLn, wireInj))
		httpC, err := client.New(ts2.URL, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		binC, err := client.New("tcp://"+wireLn.Addr().String(), client.Options{})
		if err != nil {
			t.Fatal(err)
		}

		// ---- Recovery check (clean transports): every session's live
		// set must match what was observed before the kill, and its
		// quiesced state must equal a fresh batch SCCCoordinate over
		// that set, byte-for-byte.
		if cycle > 0 {
			rec, err := httpC.Recovery(ctx)
			if err != nil {
				t.Fatalf("cycle %d: recovery status: %v", cycle, err)
			}
			if rec.Sessions != chaosSessions {
				t.Fatalf("cycle %d: recovered %d sessions, want %d", cycle, rec.Sessions, chaosSessions)
			}
			for _, name := range names {
				tr := &churnTrack{name: name, live: map[string]bool{}}
				for _, id := range observed[name] {
					tr.live[id] = true
				}
				if _, f, detail := recoveredDiff(t, ctx, httpC, backend, tr); f != "" {
					t.Fatalf("cycle %d: session %s recovered with a different %s: %s", cycle, name, f, detail)
				}
			}
		}

		// ---- Churn under fire.
		diskInj.Arm()
		wireInj.Arm()
		httpInj.Arm()
		states := map[string]*triState{}
		probe := func() {
			// Best-effort operator probe; failures consume the fault
			// budget and the next one succeeds.
			_ = backend.Probe()
		}
		for si, name := range names {
			c := httpC
			if (cycle+si)%2 == 1 {
				c = binC
			}
			if cycle == 0 {
				var sess *client.Session
				for attempt := 0; attempt < 8; attempt++ {
					sess, err = c.CreateSession(ctx, name, false)
					if err == nil || ackFate(t, err) == "acked" {
						break
					}
					probe()
				}
				if sess == nil {
					t.Fatalf("cycle 0: creating %s never succeeded: %v", name, err)
				}
			}
			st := newTriState()
			states[name] = st
			sess := c.Session(name)
			arrivals := workload.Arrivals(workload.Churn, chaosEvents, chaosRows, int64(97*cycle+si))
			for _, a := range arrivals {
				if a.Leave {
					up, err := sess.Leave(ctx, a.ID)
					switch ackFate(t, err) {
					case "acked":
						if up.Admitted {
							st.gone[a.ID] = true
							delete(st.live, a.ID)
						}
					case "unknown":
						st.unknown(a.ID)
					}
				} else {
					up, err := sess.Join(ctx, a.Query)
					switch ackFate(t, err) {
					case "acked":
						if up.Admitted || up.Parked {
							st.live[a.Query.ID] = true
							delete(st.gone, a.Query.ID)
						}
					case "unknown":
						st.unknown(a.Query.ID)
					}
				}
				// Surface and then heal degraded windows so churn makes
				// progress: a degraded /healthz is the required
				// observable, a probe the required exit.
				if backend.Degraded() {
					h, herr := httpC.Health(ctx)
					if herr == nil {
						if h.Status != "degraded" || !h.Degraded {
							t.Fatalf("backend degraded but healthz says %+v", h)
						}
						degradedSeen = true
					}
					probe()
				}
			}
		}

		// Store-WAL writes under the cycle's store faults.
		diskInj.Add(storeRules...)
		for k := 0; k < 3; k++ {
			err := backend.Apply(db.MInsert("Chaos",
				eq.Value(fmt.Sprintf("c%d", cycle)), eq.Value(fmt.Sprintf("n%d", k))))
			switch {
			case err == nil:
			case errors.Is(err, persist.ErrIndeterminate):
				indeterminateSeen = true
			case errors.Is(err, persist.ErrDegraded):
			default:
				t.Fatalf("untyped store apply error: %v", err)
			}
			if backend.Degraded() {
				probe()
			}
		}
		// Batch coordination keeps both protocols honest under network
		// faults: results either verify or fail typed.
		for _, c := range []*client.Client{httpC, binC} {
			if _, err := c.Coordinate(ctx, workload.ListQueriesAt(4, cycle%chaosRows)); err != nil {
				ackFate(t, err) // typed or retryable, never a lie
			}
		}

		// ---- Settle: lift any remaining degradation (the fault budget
		// is finite), then require /healthz ok — at that point pending
		// payloads are flushed and the journal equals the in-memory
		// state.
		deadline := time.Now().Add(15 * time.Second)
		for backend.Degraded() {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: degradation never lifted: %v", cycle, backend.DegradeCause())
			}
			probe()
			time.Sleep(time.Millisecond)
		}
		diskInj.Disarm()
		wireInj.Disarm()
		httpInj.Disarm()
		if h, err := httpC.Health(ctx); err != nil || h.Status != "ok" {
			t.Fatalf("cycle %d: healthz after settle: %+v (%v)", cycle, h, err)
		}

		// ---- Observe: confirmed acks must be visible; confirmed
		// removals must not. The observed live set becomes the truth the
		// next cycle's recovery is held to.
		for _, name := range names {
			st, err := httpC.Session(name).Status(ctx, false)
			if err != nil {
				t.Fatalf("cycle %d: status %s: %v", cycle, name, err)
			}
			liveNow := map[string]bool{}
			ids := make([]string, 0, len(st.Queries))
			for _, q := range st.Queries {
				liveNow[q.ID] = true
				ids = append(ids, q.ID)
			}
			tr := states[name]
			for id := range tr.live {
				if !liveNow[id] {
					t.Fatalf("cycle %d: %s: acked join of %q vanished before the kill", cycle, name, id)
				}
			}
			for id := range tr.gone {
				if liveNow[id] {
					t.Fatalf("cycle %d: %s: acked leave of %q did not stick", cycle, name, id)
				}
			}
			sort.Strings(ids)
			observed[name] = ids
		}

		_, df := diskInj.Stats()
		if cycle > 0 && (df == 0 || !diskInj.Exhausted()) {
			t.Fatalf("cycle %d: %d disk faults fired, and not every rule spent its budget", cycle, df)
		}
		diskFaults += df
		_, wf := wireInj.Stats()
		_, hf := httpInj.Stats()
		netFaults += wf + hf

		// ---- Kill: no drain, no sync — the acked state must already
		// be durable.
		binC.Close()
		httpC.Close()
		ts2.Close()
		backend.Abort()
		srv.Close()
		if err := backend.Close(); err != nil && !errors.Is(err, persist.ErrDegraded) {
			// Abort already released everything; Close after Abort only
			// reports the terminal state.
			_ = err
		}
	}

	if !degradedSeen {
		t.Fatal("soak never observed degraded mode in /healthz — the disk schedule is too gentle")
	}
	if diskFaults == 0 || netFaults == 0 {
		t.Fatalf("soak fired %d disk / %d net faults; both must be exercised", diskFaults, netFaults)
	}
	_ = indeterminateSeen // indeterminate acks depend on which op the schedule hits; degradedSeen is the hard gate
}
