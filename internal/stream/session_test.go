package stream_test

import (
	"errors"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/stream"
	"entangled/internal/unify"
	"entangled/internal/workload"
)

// toEvent converts a generated workload arrival into a session event.
func toEvent(a workload.Arrival) stream.Event {
	if a.Leave {
		return stream.Event{Kind: stream.LeaveEvent, ID: a.ID}
	}
	return stream.Event{Kind: stream.JoinEvent, Query: a.Query}
}

func chainStore(rows int) *db.Instance {
	in := db.NewInstance()
	t := in.CreateRelation("T", "key", "val")
	for i := 0; i < rows; i++ {
		t.Insert(eq.Value("t"+strconv.Itoa(i)), eq.Value("c"+strconv.Itoa(i)))
	}
	t.BuildIndex(1)
	return in
}

func TestSessionJoinLeave(t *testing.T) {
	s := stream.New(chainStore(4), stream.Options{})
	for i := 0; i < 4; i++ {
		up, err := s.Join(workload.ChainQuery(0, i, 4))
		if err != nil {
			t.Fatal(err)
		}
		if !up.Admitted || up.TeamSize != i+1 {
			t.Fatalf("join %d: %+v", i, up)
		}
		if up.Stats.Dirty != 1 {
			t.Fatalf("chain join %d dirtied %d components", i, up.Stats.Dirty)
		}
	}
	if s.Size() != 4 {
		t.Fatalf("size %d", s.Size())
	}
	// Departing the tail shrinks the team by one; nothing else is dirty.
	up, err := s.Leave("c0.u3")
	if err != nil {
		t.Fatal(err)
	}
	if !up.Admitted || up.TeamSize != 3 {
		t.Fatalf("leave: %+v", up)
	}
	if _, err := s.Leave("c0.u3"); !errors.Is(err, stream.ErrUnknownID) {
		t.Fatalf("double leave: %v", err)
	}
	if _, err := s.Join(workload.ChainQuery(0, 2, 4)); !errors.Is(err, stream.ErrDuplicateID) {
		t.Fatalf("duplicate join: %v", err)
	}
}

func TestSessionInteriorLeavePrunesSuffix(t *testing.T) {
	s := stream.New(chainStore(4), stream.Options{})
	for i := 0; i < 5; i++ {
		if _, err := s.Join(workload.ChainQuery(0, i, 4)); err != nil {
			t.Fatal(err)
		}
	}
	// Removing u1 strands u2's postcondition; the cascade prunes u2,
	// u3, u4 and the team collapses to {u0}.
	up, err := s.Leave("c0.u1")
	if err != nil {
		t.Fatal(err)
	}
	if up.TeamSize != 1 {
		t.Fatalf("team after interior leave: %+v", up)
	}
	st, err := s.Status(true)
	if err != nil || len(st.Trace.Pruned) != 3 {
		t.Fatalf("pruned %v, %v", st.Trace.Pruned, err)
	}
}

func TestSessionParkUnsafe(t *testing.T) {
	mk := func(id, user string, post string) eq.Query {
		q := eq.Query{
			ID:   id,
			Head: []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(user)), eq.V("x"))},
			Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
		}
		if post != "" {
			q.Post = []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(post)), eq.V("y"))}
		}
		return q
	}
	s := stream.New(chainStore(1), stream.Options{ParkUnsafe: true})
	if _, err := s.Join(mk("a", "A", "")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(mk("b", "A", "")); err != nil {
		t.Fatal(err)
	}
	// c posts to user A, who has two heads: unsafe, parked.
	up, err := s.Join(mk("c", "C", "A"))
	if err != nil || !up.Parked {
		t.Fatalf("want parked, got %+v err %v", up, err)
	}
	if s.ParkedCount() != 1 || s.Size() != 2 {
		t.Fatalf("parked %d size %d", s.ParkedCount(), s.Size())
	}
	// b departs; the retry admits c and the team becomes {a, c}.
	up, err = s.Leave("b")
	if err != nil {
		t.Fatal(err)
	}
	if s.ParkedCount() != 0 || s.Size() != 2 || up.TeamSize != 2 {
		t.Fatalf("after departure: parked %d size %d update %+v", s.ParkedCount(), s.Size(), up)
	}
}

// TestSessionRefusesSchemaMismatch: a query whose body names a relation
// the store lacks is refused, on arrival or on a parked retry, and
// leaves the session as it was, so later events coordinate.
func TestSessionRefusesSchemaMismatch(t *testing.T) {
	mk := func(id, user, post, rel string) eq.Query {
		q := eq.Query{
			ID:   id,
			Head: []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(user)), eq.V("x"))},
			Body: []eq.Atom{eq.NewAtom(rel, eq.V("x"), eq.C("c0"))},
		}
		if post != "" {
			q.Post = []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(post)), eq.V("y"))}
		}
		return q
	}
	s := stream.New(chainStore(1), stream.Options{ParkUnsafe: true})
	if up, err := s.Join(mk("n", "N", "", "Nowhere")); !errors.Is(err, db.ErrSchema) || up.Admitted || s.Size() != 0 {
		t.Fatalf("join over Nowhere: %+v, %v, size %d", up, err, s.Size())
	}
	for _, q := range []eq.Query{mk("a", "A", "", "T"), mk("b", "A", "", "T")} {
		if _, err := s.Join(q); err != nil {
			t.Fatal(err)
		}
	}
	// c posts to user A, who has two heads: parked. b's departure
	// admits c's retry, whose body names Nowhere: it is refused.
	if up, err := s.Join(mk("c", "C", "A", "Nowhere")); err != nil || !up.Parked {
		t.Fatalf("want c parked: %+v, %v", up, err)
	}
	up, err := s.Leave("b")
	if err != nil || len(up.AdmittedParked) != 0 || s.ParkedCount() != 0 || s.Size() != 1 || up.TeamSize != 1 {
		t.Fatalf("after b leaves: %+v, %v, parked %d size %d", up, err, s.ParkedCount(), s.Size())
	}
	for _, q := range []eq.Query{mk("n", "N", "", "T"), mk("c", "C", "", "T")} {
		if up, err := s.Join(q); err != nil || up.TeamSize == 0 {
			t.Fatalf("join %s after the refusals: %+v, %v", q.ID, up, err)
		}
	}
}

// TestSessionParkedIDReservation: a parked arrival reserves its ID —
// joins reusing it are rejected (live or parked holder alike), so a
// departure's retry can never admit a query over another holder or
// resurrect a double-parked copy.
func TestSessionParkedIDReservation(t *testing.T) {
	head := func(id, user string) eq.Query {
		return eq.Query{
			ID:   id,
			Head: []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(user)), eq.V("x"))},
			Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
		}
	}
	poster := func(id, user, to string) eq.Query {
		q := head(id, user)
		q.Post = []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(to)), eq.V("y"))}
		return q
	}
	s := stream.New(chainStore(1), stream.Options{ParkUnsafe: true})
	if _, err := s.Join(head("a", "A")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(head("b", "A")); err != nil {
		t.Fatal(err)
	}
	// "x" posts to the doubly-headed user A: unsafe, parked.
	if up, err := s.Join(poster("x", "X", "A")); err != nil || !up.Parked {
		t.Fatalf("want parked: %+v %v", up, err)
	}
	// The parked "x" reserves the ID: both a second unsafe copy and a
	// perfectly safe query reusing it are duplicates.
	if _, err := s.Join(poster("x", "X", "A")); !errors.Is(err, stream.ErrDuplicateID) {
		t.Fatalf("double-park allowed: %v", err)
	}
	if _, err := s.Join(head("x", "Y")); !errors.Is(err, stream.ErrDuplicateID) {
		t.Fatalf("live join over a parked ID allowed: %v", err)
	}
	if s.ParkedCount() != 1 || s.Size() != 2 {
		t.Fatalf("parked=%d size=%d", s.ParkedCount(), s.Size())
	}
	// The departure clears the conflict and the single parked copy lands.
	if _, err := s.Leave("b"); err != nil {
		t.Fatal(err)
	}
	if s.ParkedCount() != 0 || s.Size() != 2 {
		t.Fatalf("after departure: parked=%d size=%d", s.ParkedCount(), s.Size())
	}
}

// TestParkedIDIsNotLeavable: a parked arrival holds its ID but no
// slot, so leaving it is an unknown ID, as for an ID never seen, and
// leaves it parked; a compaction keeps it parked, and once a departure
// admits it, its slot is what a later leave and compaction find.
func TestParkedIDIsNotLeavable(t *testing.T) {
	head := func(id, user string) eq.Query {
		return eq.Query{
			ID:   id,
			Head: []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(user)), eq.V("x"))},
			Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
		}
	}
	s := stream.New(chainStore(1), stream.Options{ParkUnsafe: true})
	stream.SetCompactAfter(s, 1) // every departure compacts
	for _, q := range []eq.Query{head("a", "A"), head("b", "A"), head("c", "C")} {
		if _, err := s.Join(q); err != nil {
			t.Fatal(err)
		}
	}
	x := head("x", "X")
	x.Post = []eq.Atom{eq.NewAtom("R", eq.C("A"), eq.V("y"))}
	if up, err := s.Join(x); err != nil || !up.Parked {
		t.Fatalf("want parked: %+v %v", up, err)
	}
	if _, err := s.Leave("x"); !errors.Is(err, stream.ErrUnknownID) {
		t.Fatalf("leaving a parked ID: %v, want ErrUnknownID", err)
	}
	if _, err := s.Leave("c"); err != nil { // a tombstone for the compaction to remap past
		t.Fatal(err)
	}
	if s.ParkedCount() != 1 || s.Size() != 2 || s.Tombstones() != 0 {
		t.Fatalf("after compaction: parked=%d size=%d tombstones=%d", s.ParkedCount(), s.Size(), s.Tombstones())
	}
	if up, err := s.Leave("b"); err != nil || !slices.Equal(up.AdmittedParked, []string{"x"}) || s.Tombstones() != 0 {
		t.Fatalf("departure: %+v %v, %d tombstones; want x admitted and a compaction", up, err, s.Tombstones())
	}
	if _, err := s.Leave("x"); err != nil {
		t.Fatalf("leaving the admitted x: %v", err)
	}
	if s.ParkedCount() != 0 || s.Size() != 1 {
		t.Fatalf("at the end: parked=%d size=%d", s.ParkedCount(), s.Size())
	}
}

func TestSessionRejectUnsafeWithoutParking(t *testing.T) {
	s := stream.New(chainStore(1), stream.Options{})
	head := func(id string) eq.Query {
		return eq.Query{
			ID:   id,
			Head: []eq.Atom{eq.NewAtom("R", eq.C("A"), eq.V("x"))},
			Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
		}
	}
	if _, err := s.Join(head("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(head("b")); err != nil {
		t.Fatal(err)
	}
	q := eq.Query{
		ID:   "c",
		Post: []eq.Atom{eq.NewAtom("R", eq.C("A"), eq.V("y"))},
		Head: []eq.Atom{eq.NewAtom("R", eq.C("C"), eq.V("x"))},
		Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
	}
	if _, err := s.Join(q); !errors.Is(err, coord.ErrUnsafeArrival) {
		t.Fatalf("want ErrUnsafeArrival, got %v", err)
	}
	if tot := s.Totals(); tot.Rejected != 1 {
		t.Fatalf("totals %+v", tot)
	}
}

// TestSessionStoreErrorStaysConsistent: a store error mid-pass must not
// desynchronise the session. In the first case the store fails the
// arrival's own grounding: the offending
// query stays tracked, can be departed, and the session heals. The
// others fail the store in the middle of a reconcile walk — the k-th of
// several grounding queries — which leaves the outcome cache half
// stamped: some entries carry the failed pass's number, some the one
// before, and some are new. The next event must sweep it as if nothing
// had happened.
func TestSessionStoreErrorStaysConsistent(t *testing.T) {
	t.Run("failed arrival stays tracked", func(t *testing.T) {
		store := &flakyStore{Store: chainStore(2), err: errors.New("store: injected failure")}
		s := stream.New(store, stream.Options{})
		if _, err := s.Join(workload.ChainQuery(0, 0, 2)); err != nil {
			t.Fatal(err)
		}
		bad := workload.ChainQuery(0, 1, 2)
		store.failAt = 1
		if up, err := s.Join(bad); !errors.Is(err, store.err) || !up.Admitted {
			t.Fatalf("want the arrival admitted and its grounding failed: %+v, %v", up, err)
		}
		// The query committed before the pass failed: it is live, visible,
		// and — critically — removable.
		if s.Size() != 2 {
			t.Fatalf("size %d after failed pass", s.Size())
		}
		if _, err := s.Join(bad); !errors.Is(err, stream.ErrDuplicateID) {
			t.Fatalf("ID of the failed join not reserved: %v", err)
		}
		if _, err := s.Leave(bad.ID); err != nil {
			t.Fatalf("failed join cannot be departed: %v", err)
		}
		if s.Size() != 1 {
			t.Fatalf("size %d after departure", s.Size())
		}
		// The session is healthy again: new events coordinate normally.
		up, err := s.Join(bad)
		if err != nil {
			t.Fatal(err)
		}
		if up.TeamSize != 2 {
			t.Fatalf("team %d after recovery", up.TeamSize)
		}
	})

	// Chain 0 is twelve long and grounds nowhere, its root's body
	// matching no row through a join, so no failed search names it
	// (workload.JoinedDeadEnd); chains 1 to 3 are eight long. The walk searches
	// chain 0's five sets of eight or more, largest first, before chain
	// 1's set of eight grounds. Chain 0's member 2 leaves (stranding
	// 3..11) and comes back, which dirties those five; the store fails
	// the third grounding. never runs the same events on a store that
	// does not fail.
	const chains, chainLen, deadLen, failAt, dirtied = 4, 8, 12, 3, 5
	errStore := errors.New("store: injected failure")
	type pair struct {
		failed, never *stream.Session
		store         *flakyStore
	}
	interior := workload.ChainQuery(0, 2, chains)
	setup := func(t *testing.T) pair {
		p := pair{store: &flakyStore{Store: chainStore(chains), err: errStore}}
		p.failed = stream.New(p.store, stream.Options{})
		p.never = stream.New(chainStore(chains), stream.Options{})
		for _, s := range []*stream.Session{p.failed, p.never} {
			for c := 0; c < chains; c++ {
				n := chainLen
				if c == 0 {
					n = deadLen
				}
				for i := 0; i < n; i++ {
					q := workload.ChainQuery(c, i, chains)
					if c == 0 && i == 0 {
						q.Body = []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.V("y")), eq.NewAtom("T", eq.V("y"), eq.C("none"))}
					}
					if _, err := s.Join(q); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := s.Leave(interior.ID); err != nil {
				t.Fatal(err)
			}
		}
		p.store.failAt = failAt
		up, err := p.failed.Join(interior)
		if !errors.Is(err, errStore) || !up.Admitted || up.Stats.Dirty != failAt-1 {
			t.Fatalf("mid-walk failure: err %v, update %+v", err, up)
		}
		if up, err = p.never.Join(interior); err != nil || up.Stats.Dirty != dirtied {
			t.Fatalf("the same arrival on a healthy store: err %v, update %+v", err, up)
		}
		return p
	}
	// both applies one event to both sessions, requires the failed one
	// to equal batch, and returns the two events' costs.
	both := func(t *testing.T, p pair, label string, ev stream.Event) (failed, never coord.DeltaStats) {
		t.Helper()
		fu, err := p.failed.Apply(ev)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		nu, err := p.never.Apply(ev)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkSessionMatchesBatch(t, p.failed, p.store, label)
		return fu.Stats, nu.Stats
	}

	t.Run("mid-walk failure, then the arrival is undone", func(t *testing.T) {
		// Undoing the arrival needs nothing the failed pass did not get
		// to: the next event costs exactly what it costs a session whose
		// store never failed, and so does the one after.
		p := setup(t)
		for _, ev := range []stream.Event{
			{Kind: stream.LeaveEvent, ID: interior.ID},
			{Kind: stream.JoinEvent, Query: interior},
		} {
			if f, n := both(t, p, ev.ID+ev.Query.ID, ev); f != n {
				t.Fatalf("%v after a failed pass cost %+v, a never-failed session pays %+v", ev, f, n)
			}
		}
	})

	t.Run("mid-walk failure, then an unrelated event", func(t *testing.T) {
		// Another chain's tail leaves, and chain 0's five sets are
		// walked again: the two the failed pass finished are reused, the
		// three it never reached are the only extra work — and with
		// that pass complete, the session is level with one that never
		// failed.
		p := setup(t)
		tail := workload.ChainQuery(1, chainLen-1, chains)
		f, n := both(t, p, "unrelated leave", stream.Event{Kind: stream.LeaveEvent, ID: tail.ID})
		owed := dirtied - (failAt - 1)
		if f.Components != n.Components || f.Dirty != n.Dirty+owed || f.Reused != n.Reused-owed || f.DBQueries != n.DBQueries+int64(owed) {
			t.Fatalf("the event after a failed pass cost %+v; want a never-failed session's %+v plus the %d groundings still owed", f, n, owed)
		}
		if f, n = both(t, p, "rejoin", stream.Event{Kind: stream.JoinEvent, Query: tail}); f != n {
			t.Fatalf("one pass later the session costs %+v, a never-failed one %+v", f, n)
		}
	})
}

// TestSessionCompactsThroughStoreOutage: at threshold 1 every departure
// of an outage is followed by a compaction, with no successful pass in
// between to sweep the outcomes that name the departed slots. During
// the outage chain 0 loses an interior member, which chain 1's cached
// set outlasts, and gets it back, which leaves its set owed a
// grounding; from then on every event's pass fails on it, and chain 1
// loses its tail three times under the failed passes. The session must keep its IDs leavable throughout and be
// exact one event after the store is back.
func TestSessionCompactsThroughStoreOutage(t *testing.T) {
	const chains, chainLen = 2, 6
	store := &flakyStore{Store: chainStore(chains), err: errors.New("store: down")}
	s, never := stream.New(store, stream.Options{}), stream.New(chainStore(chains), stream.Options{})
	for _, x := range []*stream.Session{s, never} {
		stream.SetCompactAfter(x, 1)
		for c := 0; c < chains; c++ {
			for i := 0; i < chainLen; i++ {
				if _, err := x.Join(workload.ChainQuery(c, i, chains)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Chain 0 leads; its tail leaves and comes back so that chain 1's
	// set is searched, and cached, before the outage.
	tail := workload.ChainQuery(0, chainLen-1, chains)
	for _, x := range []*stream.Session{s, never} {
		for _, ev := range []stream.Event{{Kind: stream.LeaveEvent, ID: tail.ID}, {Kind: stream.JoinEvent, Query: tail}} {
			if _, err := x.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	interior := workload.ChainQuery(0, 2, chains)
	outage := []stream.Event{
		{Kind: stream.LeaveEvent, ID: interior.ID}, // strands the suffix; grounds nothing
		{Kind: stream.JoinEvent, Query: interior},  // owes the suffix its groundings
	}
	for i := chainLen - 1; i > 2; i-- {
		outage = append(outage, stream.Event{Kind: stream.LeaveEvent, ID: workload.ChainQuery(1, i, chains).ID})
	}
	store.down = true
	for n, ev := range outage {
		want := error(nil)
		if n > 0 {
			want = store.err
		}
		up, err := s.Apply(ev)
		if !errors.Is(err, want) || !up.Admitted || s.Tombstones() != 0 {
			t.Fatalf("%v during the outage: err %v, update %+v, %d tombstones", ev, err, up, s.Tombstones())
		}
		if _, err := never.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	store.down = false
	for _, ev := range []stream.Event{
		{Kind: stream.LeaveEvent, ID: workload.ChainQuery(1, 2, chains).ID},
		{Kind: stream.JoinEvent, Query: workload.ChainQuery(1, 2, chains)},
	} {
		if _, err := s.Apply(ev); err != nil {
			t.Fatalf("%v after the outage: %v", ev, err)
		}
		if _, err := never.Apply(ev); err != nil {
			t.Fatal(err)
		}
		got, err := s.Status(true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := never.Status(true)
		if err != nil {
			t.Fatal(err)
		}
		got.Totals, want.Totals = stream.Totals{}, stream.Totals{} // the outage's events cost less
		got.Result.DBQueries, want.Result.DBQueries = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v after the outage:\n%+v\na session whose store never failed:\n%+v", ev, got, want)
		}
	}
}

// flakyStore fails the failAt-th grounding query (SolveUnder) it sees
// once failAt is set, and only that one; while down is set it fails
// them all.
type flakyStore struct {
	db.Store
	err          error
	failAt, seen int
	down         bool
}

func (s *flakyStore) SolveUnder(body []eq.Atom, sub *unify.Subst) (db.Binding, bool, error) {
	if s.down {
		return db.Binding{}, false, s.err
	}
	if s.failAt > 0 {
		if s.seen++; s.seen == s.failAt {
			return db.Binding{}, false, s.err
		}
	}
	return s.Store.SolveUnder(body, sub)
}

// TestFailedEventsAreBilled: an update reports what its event asked the
// database even when the event fails partway, and the session's totals
// are the sum of what its updates and refreshes reported.
func TestFailedEventsAreBilled(t *testing.T) {
	store := &flakyStore{Store: chainStore(1), err: errors.New("store: down")}
	s := stream.New(store, stream.Options{})
	var billed int64
	up, err := s.Join(workload.ChainQuery(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	billed += up.Stats.DBQueries
	store.down = true
	if up, err = s.Join(workload.ChainQuery(0, 1, 1)); !errors.Is(err, store.err) || up.Stats.DBQueries != 1 {
		t.Fatalf("a join whose grounding fails: %+v, %v; want the grounding billed", up.Stats, err)
	}
	billed += up.Stats.DBQueries
	d, err := s.Refresh()
	if !errors.Is(err, store.err) || d.DBQueries != 1 {
		t.Fatalf("a refresh whose first grounding fails: %+v, %v; want the grounding billed", d, err)
	}
	billed += d.DBQueries
	store.down = false
	if d, err = s.Refresh(); err != nil {
		t.Fatal(err)
	}
	billed += d.DBQueries
	if got := s.Totals().DBQueries; got != billed {
		t.Fatalf("the session's totals count %d queries, its updates and refreshes reported %d", got, billed)
	}
}
