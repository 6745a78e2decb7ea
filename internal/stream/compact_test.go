package stream_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"entangled/internal/eq"
	"entangled/internal/stream"
	"entangled/internal/workload"
)

// TestSessionCompactionPreservesBatchEquivalence is the slot-compaction
// property test: under high churn with an aggressive threshold (compact
// after every 2 tombstones), a session must stay byte-for-byte
// batch-equivalent after every single event — team, witness values and
// trace — and every departed ID must stay leave-able through the
// renumbering. The aggressive threshold makes compaction fire dozens of
// times per run instead of once at the end.
func TestSessionCompactionPreservesBatchEquivalence(t *testing.T) {
	const rows = 16
	for _, shards := range []int{1, 2} {
		for seed := int64(0); seed < 3; seed++ {
			store := workload.NewStore(shards, rows, 0)
			s := stream.New(store, stream.Options{})
			stream.SetCompactAfter(s, 2)
			for i, a := range workload.Arrivals(workload.Churn, 48, rows, seed) {
				if _, err := s.Apply(toEvent(a)); err != nil {
					t.Fatalf("shards=%d seed=%d event %d (%v): %v", shards, seed, i, toEvent(a), err)
				}
				if got := s.Tombstones(); got >= 2 {
					t.Fatalf("shards=%d seed=%d event %d: %d tombstones survived threshold 2", shards, seed, i, got)
				}
				checkSessionMatchesBatch(t, s, store,
					fmt.Sprintf("compact shards=%d seed=%d event %d", shards, seed, i))
			}
		}
	}
}

// TestCompactionIsInvisible runs one seeded churn — joins, leaves,
// arrivals parked as unsafe and admitted by a later departure, bodies
// no row satisfies — under four compaction thresholds and requires that
// nothing a client can read tells them apart: every update's cost and
// team size, and the whole status (queries, team, values, trace, parked
// count, totals) after every event. The run that never compacts is the
// reference; a renumbering that re-grounded anything, or reported
// itself in place of the event, would differ from it at the first
// compacting departure.
func TestCompactionIsInvisible(t *testing.T) {
	const (
		rows, users, events = 8, 24, 600
	)
	type seen struct {
		admitted, parked bool
		admittedParked   []string
		err              string
		stats            [4]int64 // components, dirty, reused, database queries
		team             int
		status           stream.Status
	}
	run := func(compactAfter int) (log []seen, compactions, retried int) {
		rng := rand.New(rand.NewSource(24))
		s := stream.New(chainStore(rows), stream.Options{ParkUnsafe: true})
		stream.SetCompactAfter(s, compactAfter)
		user := func() eq.Term { return eq.C(eq.Value("U" + strconv.Itoa(rng.Intn(users)))) }
		var live []string
		for n := 0; n < events; n++ {
			var ev stream.Event
			if len(live) > 0 && rng.Intn(5) < 2 {
				k := rng.Intn(len(live))
				ev = stream.Event{Kind: stream.LeaveEvent, ID: live[k]}
				live = append(live[:k], live[k+1:]...)
			} else {
				val := "c" + strconv.Itoa(rng.Intn(rows))
				if rng.Intn(8) == 0 {
					val = "missing"
				}
				q := eq.Query{
					ID:   "q" + strconv.Itoa(n),
					Head: []eq.Atom{eq.NewAtom("R", user(), eq.V("x"))},
					Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C(eq.Value(val)))},
				}
				for p := rng.Intn(3); p > 0; p-- {
					q.Post = append(q.Post, eq.NewAtom("R", user(), eq.V("y"+strconv.Itoa(p))))
				}
				ev = stream.Event{Kind: stream.JoinEvent, Query: q}
			}
			up, err := s.Apply(ev)
			if up.Admitted && ev.Kind == stream.JoinEvent {
				live = append(live, ev.Query.ID)
			}
			live = append(live, up.AdmittedParked...)
			if ev.Kind == stream.LeaveEvent && up.Admitted && s.Tombstones() == 0 {
				compactions++ // a departure leaves a tombstone, unless it compacted
			}
			retried += len(up.AdmittedParked)
			st, serr := s.Status(true)
			if serr != nil {
				t.Fatalf("compactAfter=%d event %d (%v): status: %v", compactAfter, n, ev, serr)
			}
			// The status prices the event the client sent, not the
			// housekeeping behind it.
			if up.Admitted && err == nil && len(up.AdmittedParked) == 0 && st.Result != nil && st.Result.DBQueries != up.Stats.DBQueries {
				t.Fatalf("compactAfter=%d event %d (%v): status reports %d queries, the update %d",
					compactAfter, n, ev, st.Result.DBQueries, up.Stats.DBQueries)
			}
			log = append(log, seen{
				up.Admitted, up.Parked, up.AdmittedParked, fmt.Sprint(err),
				[4]int64{int64(up.Stats.Components), int64(up.Stats.Dirty), int64(up.Stats.Reused), up.Stats.DBQueries},
				up.TeamSize, st,
			})
		}
		return log, compactions, retried
	}
	want, compactions, retried := run(math.MaxInt)
	if compactions != 0 || retried == 0 {
		t.Fatalf("reference run: %d compactions, %d parked arrivals admitted on retry", compactions, retried)
	}
	for _, compactAfter := range []int{1, 2, 64} {
		got, compactions, _ := run(compactAfter)
		if compactions == 0 {
			t.Fatalf("compactAfter=%d: the churn never compacted", compactAfter)
		}
		for n := range want {
			if !reflect.DeepEqual(got[n], want[n]) {
				t.Fatalf("compactAfter=%d event %d:\n got %+v\nwant %+v", compactAfter, n, got[n], want[n])
			}
		}
	}
}

// TestSessionCompactionKeepsIDsLeavable pins the remap contract: after
// a compaction the ID index must point at the renumbered slots, so
// every live query can still depart.
func TestSessionCompactionKeepsIDsLeavable(t *testing.T) {
	const rows = 8
	store := workload.NewStore(1, rows, 0)
	s := stream.New(store, stream.Options{})
	stream.SetCompactAfter(s, 3)
	for i := 0; i < 6; i++ {
		q := eq.Query{
			ID:   "q" + strconv.Itoa(i),
			Head: []eq.Atom{eq.NewAtom("R", eq.C(eq.Value("U"+strconv.Itoa(i))), eq.V("x"))},
			Body: []eq.Atom{eq.NewAtom("T", eq.V("k"), eq.C(eq.Value("c"+strconv.Itoa(i%rows))))},
		}
		if _, err := s.Join(q); err != nil {
			t.Fatal(err)
		}
	}
	// Punch holes; the third compacts.
	for i, id := range []string{"q0", "q2", "q4"} {
		if _, err := s.Leave(id); err != nil {
			t.Fatal(err)
		}
		if got, want := s.Tombstones(), (i+1)%3; got != want {
			t.Fatalf("tombstones after leaving %s = %d, want %d", id, got, want)
		}
	}
	checkSessionMatchesBatch(t, s, store, "after compaction")
	// The survivors must still be addressable by ID.
	for _, id := range []string{"q1", "q3", "q5"} {
		if _, err := s.Leave(id); err != nil {
			t.Fatalf("leave %s after compaction: %v", id, err)
		}
	}
	if got := s.Size(); got != 0 {
		t.Fatalf("size after draining = %d, want 0", got)
	}
}

// TestSessionShrinkAndRegrowMatchesBatch takes a session from 256 live
// queries down to 2 and back up to 256, comparing it with batch
// SCCCoordinate — team, values, trace bytes — after every single event.
// The coordinator's per-pass scratch is sized by the largest state it
// has seen and reused by every smaller one, so anything read beyond the
// current length, or left over from the previous pass, surfaces here. It
// runs with compaction after every 2 tombstones (the scratch is
// released and regrown constantly), at the default threshold, and
// never (the scratch only ever grows, and 254 slots are dead at the
// turn).
func TestSessionShrinkAndRegrowMatchesBatch(t *testing.T) {
	chains, chainLen := 16, 16
	if raceEnabled {
		chains = 4 // stale scratch is not a data race; 64 queries keep -race quick
	}
	for _, compactAfter := range []int{2, stream.DefaultCompactAfter, math.MaxInt} {
		store := workload.NewStore(1, chains, 0)
		s := stream.New(store, stream.Options{})
		stream.SetCompactAfter(s, compactAfter)
		var order []eq.Query
		for i := 0; i < chainLen; i++ {
			for c := 0; c < chains; c++ {
				order = append(order, workload.ChainQuery(c, i, chains))
			}
		}
		step := func(phase string, n int, q eq.Query, leave bool) {
			t.Helper()
			var err error
			if leave {
				_, err = s.Leave(q.ID)
			} else {
				_, err = s.Join(q)
			}
			label := fmt.Sprintf("compactAfter=%d %s %d (%s)", compactAfter, phase, n, q.ID)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkSessionMatchesBatch(t, s, store, label)
		}
		for n, q := range order {
			step("grow", n, q, false)
		}
		// Down to 2: alternately clip a tail and pull an interior member
		// out from under its suffix, so both the cheap and the cascading
		// departure run at every size.
		left := append([]eq.Query(nil), order...)
		for n := 0; len(left) > 2; n++ {
			k := len(left) - 1
			if n%2 == 1 {
				k = len(left) / 3
			}
			step("shrink", n, left[k], true)
			left = append(left[:k], left[k+1:]...)
		}
		if s.Size() != 2 {
			t.Fatalf("compactAfter=%d: %d live at the turn", compactAfter, s.Size())
		}
		// And back: the departed queries return in their original order,
		// un-pruning the suffixes they had stranded.
		live := map[string]bool{left[0].ID: true, left[1].ID: true}
		for n, q := range order {
			if !live[q.ID] {
				step("regrow", n, q, false)
			}
		}
		if s.Size() != chains*chainLen {
			t.Fatalf("compactAfter=%d: %d live at the end", compactAfter, s.Size())
		}
	}
}
