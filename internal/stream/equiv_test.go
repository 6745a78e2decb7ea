package stream_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/stream"
	"entangled/internal/workload"
)

// checkSessionMatchesBatch compares a quiesced session's entire
// observable state with a fresh batch SCCCoordinate over the session's
// live queries: team, witness values (verified against Definition 1),
// the full trace, and the cost contract — the marginal event cost never
// exceeds the batch cost, and reading the result costs nothing.
func checkSessionMatchesBatch(t *testing.T, s *stream.Session, store db.Store, label string) {
	t.Helper()
	qs := s.Queries()

	before := store.QueriesIssued()
	st, err := s.Status(true)
	if err != nil {
		t.Fatalf("%s: session result: %v", label, err)
	}
	got, tr := st.Result, st.Trace
	if issued := store.QueriesIssued() - before; issued != 0 {
		t.Fatalf("%s: reading a quiesced session cost %d queries", label, issued)
	}

	btr := &coord.Trace{}
	want, err := coord.SCCCoordinate(qs, store, coord.Options{Trace: btr})
	if err != nil {
		t.Fatalf("%s: batch: %v", label, err)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: result presence: session %v, batch %v", label, got, want)
	}
	if got != nil {
		if !reflect.DeepEqual(got.Set, want.Set) {
			t.Fatalf("%s: team %v != %v", label, got.Set, want.Set)
		}
		if !reflect.DeepEqual(got.Values, want.Values) {
			t.Fatalf("%s: values %v != %v", label, got.Values, want.Values)
		}
		if err := coord.Verify(qs, got.Set, got.Values, store); err != nil {
			t.Fatalf("%s: session witness fails Definition 1: %v", label, err)
		}
		if got.DBQueries > want.DBQueries {
			t.Fatalf("%s: marginal event cost %d exceeds batch cost %d", label, got.DBQueries, want.DBQueries)
		}
	}
	if !reflect.DeepEqual(tr.Pruned, btr.Pruned) && !(len(tr.Pruned) == 0 && len(btr.Pruned) == 0) {
		t.Fatalf("%s: pruned %v != %v", label, tr.Pruned, btr.Pruned)
	}
	if len(tr.Components) != len(btr.Components) {
		t.Fatalf("%s: %d components != %d", label, len(tr.Components), len(btr.Components))
	}
	for i := range tr.Components {
		if !reflect.DeepEqual(tr.Components[i], btr.Components[i]) {
			t.Fatalf("%s: component %d:\nsession %+v\nbatch   %+v", label, i, tr.Components[i], btr.Components[i])
		}
	}
}

// TestSessionMatchesBatchProperty is the stream-vs-batch equivalence
// property test: across shard counts K=1,2,8 and many random
// interleavings of joins and leaves, a quiesced session reports the
// same team, witness values and trace as batch SCCCoordinate on the
// final set, for no more database queries per event than the batch run
// costs.
func TestSessionMatchesBatchProperty(t *testing.T) {
	const rows = 32
	for _, shards := range []int{1, 2, 8} {
		for seed := int64(0); seed < 4; seed++ {
			store := workload.NewStore(shards, rows, 0)
			s := stream.New(store, stream.Options{})
			arrivals := workload.Arrivals(workload.Churn, 48, rows, seed)
			for i, a := range arrivals {
				if _, err := s.Apply(toEvent(a)); err != nil {
					t.Fatalf("shards=%d seed=%d event %d (%v): %v", shards, seed, i, toEvent(a), err)
				}
			}
			checkSessionMatchesBatch(t, s, store,
				fmt.Sprintf("shards=%d seed=%d", shards, seed))
		}
	}
}

// TestSessionMatchesBatchEveryEvent quiesces after every single event
// on one shard count, catching divergence at the exact event that
// introduces it.
func TestSessionMatchesBatchEveryEvent(t *testing.T) {
	const rows = 16
	store := workload.NewStore(1, rows, 0)
	s := stream.New(store, stream.Options{})
	for i, a := range workload.Arrivals(workload.Churn, 40, rows, 99) {
		if _, err := s.Apply(toEvent(a)); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		checkSessionMatchesBatch(t, s, store, fmt.Sprintf("event %d (%v)", i, toEvent(a)))
	}
}

// TestSessionDepartureReordersComponents pins the cache-key regression:
// forward-posting queries arrive in an order that gives Tarjan a
// different component numbering once one of them departs, so a
// surviving component's reachable SET is unchanged while its assembly
// ORDER is not. The outcome cache is keyed on the ordered sequence, so
// this must re-solve (not splice a stale outcome) and stay
// byte-for-byte equal to batch — including the rendered combined query
// and the witness.
func TestSessionDepartureReordersComponents(t *testing.T) {
	store := chainStore(4)
	mk := func(id, user string, posts ...string) eq.Query {
		q := eq.Query{
			ID:   id,
			Head: []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(user)), eq.V("x"))},
			Body: []eq.Atom{eq.NewAtom("T", eq.V("z"+user), eq.C("c0"))},
		}
		for i, p := range posts {
			q.Post = append(q.Post, eq.NewAtom("R", eq.C(eq.Value(p)), eq.V("y"+strconv.Itoa(i))))
		}
		return q
	}
	s := stream.New(store, stream.Options{})
	for _, q := range []eq.Query{
		mk("d", "D", "A"),
		mk("c", "C", "B", "A"),
		mk("a", "A"),
		mk("b", "B"),
	} {
		if _, err := s.Join(q); err != nil {
			t.Fatal(err)
		}
	}
	checkSessionMatchesBatch(t, s, store, "before departure")
	if _, err := s.Leave("d"); err != nil {
		t.Fatal(err)
	}
	checkSessionMatchesBatch(t, s, store, "after departure")
}

// TestSessionTraceRenumbersTermsNotText: after a departure the trace's
// alpha-renaming prefixes move from serials to positions, and nothing
// else does — constants, a relation and a variable whose own names
// contain "q1." read exactly as the batch trace over Queries() reads
// them.
func TestSessionTraceRenumbersTermsNotText(t *testing.T) {
	in := db.NewInstance()
	docs := in.CreateRelation("Docs", "user", "file")
	tags := in.CreateRelation("q1.Tags", "user", "tag")
	for _, u := range []eq.Value{"A", "B"} {
		docs.Insert(u, "Faq1.pdf")
		tags.Insert(u, "seq1.a")
	}
	s := stream.New(in, stream.Options{})
	for _, u := range []string{"A", "B"} {
		q := eq.Query{ID: u, Body: []eq.Atom{
			eq.NewAtom("Docs", eq.C(eq.Value(u)), eq.C("Faq1.pdf")),
			eq.NewAtom("q1.Tags", eq.C(eq.Value(u)), eq.V("q1.tag")),
		}}
		if _, err := s.Join(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Leave("A"); err != nil {
		t.Fatal(err)
	}
	checkSessionMatchesBatch(t, s, in, "slot 1 at position 0")
	want := "Docs(B, 'Faq1.pdf'), q1.Tags(B, q0.q1.tag)"
	if st, err := s.Status(true); err != nil || len(st.Trace.Components) != 1 || st.Trace.Components[0].Combined != want {
		t.Fatalf("trace %+v (%v), want one component asking %s", st.Trace, err, want)
	}
}

// TestSessionConcurrentWritersThenRefresh interleaves store writers
// with session events, then pauses them and Refreshes: the session must
// resynchronise to exactly the batch answer over the final store. The
// test runs under -race in CI, so it also proves the session and the
// store tolerate genuinely concurrent readers and writers.
func TestSessionConcurrentWritersThenRefresh(t *testing.T) {
	const rows = 16
	in := db.NewInstance()
	tab := in.CreateRelation("T", "key", "val")
	for i := 0; i < rows; i++ {
		tab.Insert(eq.Value("t"+strconv.Itoa(i)), eq.Value("c"+strconv.Itoa(i)))
	}
	tab.BuildIndex(1)

	s := stream.New(in, stream.Options{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent writer: grows T while the session works
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			tab.Insert(eq.Value(fmt.Sprintf("w%d", n)), eq.Value("c"+strconv.Itoa(rng.Intn(rows))))
		}
	}()
	for i, a := range workload.Arrivals(workload.Steady, 64, rows, 5) {
		if _, err := s.Apply(toEvent(a)); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait() // writers paused

	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	checkSessionMatchesBatch(t, s, in, "after refresh")
}
