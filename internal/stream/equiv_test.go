package stream_test

import (
	"encoding/json"
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
		if !reflect.DeepEqual(got.Set, want.Set) || !reflect.DeepEqual(got.Values, want.Values) {
			t.Fatalf("%s: session %+v, batch %+v", label, got, want)
		}
		if err := coord.Verify(qs, got.Set, got.Values, store); err != nil {
			t.Fatalf("%s: session witness fails Definition 1: %v", label, err)
		}
		if got.DBQueries > want.DBQueries {
			t.Fatalf("%s: marginal event cost %d exceeds batch cost %d", label, got.DBQueries, want.DBQueries)
		}
	}
	// JSON drops the difference between no pruning and an empty list.
	gj, _ := json.Marshal(tr)
	wj, _ := json.Marshal(btr)
	if string(gj) != string(wj) {
		t.Fatalf("%s: traces differ:\nsession %s\nbatch   %s", label, gj, wj)
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
