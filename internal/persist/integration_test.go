//go:build persist_integration

package persist

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"entangled/internal/db"
	"entangled/internal/stream"
	"entangled/internal/workload"
)

// TestKillAndReopenCycles is the durable-tier soak (built only with
// -tags persist_integration): many cycles of write → stop → reopen over
// ONE data directory, alternating clean closes with aborts (the crash
// simulation), forcing compactions and rotations along the way. After
// every reopen the durable store must answer identically to an
// in-memory store replaying the full accumulated mutation stream (under
// each sync policy, the interval timer's included), and
// every journaled session must come back with its full event history.
func TestKillAndReopenCycles(t *testing.T) {
	const cycles = 12
	for _, shards := range []int{1, 3} {
		for _, sync := range []SyncPolicy{SyncAlways, SyncNever, SyncEvery(10 * time.Millisecond)} {
			t.Run(fmt.Sprintf("shards=%d/fsync=%s", shards, sync), func(t *testing.T) {
				dir := t.TempDir()
				opts := Options{Shards: shards, Sync: sync}
				var applied []db.Mutation
				var journaled []stream.Event
				for cycle := 0; cycle < cycles; cycle++ {
					// Small segments so rotation happens constantly.
					b := openSmall(t, dir, opts, 4<<10, compactBytes)
					if (cycle == 0) != b.Fresh() {
						t.Fatalf("cycle %d: fresh=%v", cycle, b.Fresh())
					}
					// The recovered store must equal an in-memory replay of
					// everything applied so far.
					mem := replayed(t, shards, applied)
					if cycle > 0 {
						if got, want := probe(t, b), probe(t, mem); !reflect.DeepEqual(got, want) {
							t.Fatalf("cycle %d: recovered answers differ:\ndurable %v\nmemory  %v", cycle, got, want)
						}
					}
					if !reflect.DeepEqual(b.Domain(), mem.Domain()) {
						t.Fatalf("cycle %d: recovered domain differs", cycle)
					}
					// The journal must hold every event journaled so far.
					rs, err := b.RecoverSessions()
					if err != nil {
						t.Fatalf("cycle %d: recovering sessions: %v", cycle, err)
					}
					var j *SessionJournal
					if cycle == 0 {
						if len(rs) != 0 {
							t.Fatalf("cycle 0: %d sessions in a fresh dir", len(rs))
						}
						if j, err = b.CreateSessionJournal("soak", true); err != nil {
							t.Fatal(err)
						}
					} else {
						if len(rs) != 1 || rs[0].Name != "soak" || !rs[0].Park {
							t.Fatalf("cycle %d: recovered sessions %+v", cycle, rs)
						}
						if !reflect.DeepEqual(rs[0].Events, journaled) {
							t.Fatalf("cycle %d: journal has %d events, want %d", cycle, len(rs[0].Events), len(journaled))
						}
						j = rs[0].Journal
					}

					// This cycle's writes: a fresh slice of skewed data plus
					// a few session events.
					chunk := workload.SkewedMutations(workload.SkewOptions{
						Relations: 2, MaxRows: 120, Seed: int64(100 + cycle),
					})
					// Relation names must not collide across cycles.
					for i := range chunk {
						chunk[i].Rel = fmt.Sprintf("c%d%s", cycle, chunk[i].Rel)
					}
					if cycle == 0 {
						chunk = append(seedMutations(40), chunk...)
					}
					if err := db.ApplyAll(b, chunk); err != nil {
						t.Fatalf("cycle %d: apply: %v", cycle, err)
					}
					applied = append(applied, chunk...)
					for k := 0; k < 3; k++ {
						ev := stream.Event{Kind: stream.JoinEvent, Query: workload.ChainQuery(cycle, k, 40)}
						ev.Query.ID = fmt.Sprintf("c%d.%d", cycle, k)
						if err := j.Append(ev); err != nil {
							t.Fatalf("cycle %d: journal append: %v", cycle, err)
						}
						journaled = append(journaled, ev)
					}
					if cycle%4 == 2 {
						if err := b.Compact(); err != nil {
							t.Fatalf("cycle %d: compact: %v", cycle, err)
						}
					}
					// Answers must already be right before the stop.
					mem2 := replayed(t, shards, applied)
					if got, want := probe(t, b), probe(t, mem2); !reflect.DeepEqual(got, want) {
						t.Fatalf("cycle %d: pre-stop answers differ", cycle)
					}
					if cycle%2 == 0 {
						b.Abort() // hard stop: no syncs, handles dropped
					} else {
						if err := b.Close(); err != nil {
							t.Fatalf("cycle %d: close: %v", cycle, err)
						}
					}
				}
				// Final verification pass.
				b := openT(t, dir, opts)
				defer b.Close()
				mem := replayed(t, shards, applied)
				if got, want := probe(t, b), probe(t, mem); !reflect.DeepEqual(got, want) {
					t.Fatal("final recovered answers differ from full in-memory replay")
				}
				rs, err := b.RecoverSessions()
				if err != nil {
					t.Fatal(err)
				}
				if len(rs) != 1 || !reflect.DeepEqual(rs[0].Events, journaled) {
					t.Fatalf("final journal: %d sessions, want the full %d-event history", len(rs), len(journaled))
				}
				st := b.RecoveryStats()
				if st.WALFrames+st.SnapshotFrames != len(applied) {
					t.Fatalf("final recovery covers %d+%d mutations, want %d",
						st.SnapshotFrames, st.WALFrames, len(applied))
				}
			})
		}
	}
}

// replayed builds the in-memory reference store.
func replayed(t *testing.T, shards int, ms []db.Mutation) db.WriteStore {
	t.Helper()
	var s db.WriteStore
	if shards > 1 {
		s = db.NewShardedInstance(shards)
	} else {
		s = db.NewInstance()
	}
	if err := db.ApplyAll(s, ms); err != nil {
		t.Fatal(err)
	}
	return s
}
