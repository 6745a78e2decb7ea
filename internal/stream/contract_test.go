package stream_test

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/stream"
	"entangled/internal/unify"
)

// userQuery asks for user's head over T(?x, c0); with to set, it also
// posts to user to, which is unsafe while to has two heads.
func userQuery(id, user, to string) eq.Query {
	q := eq.Query{
		ID:   id,
		Head: []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(user)), eq.V("x"))},
		Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
	}
	if to != "" {
		q.Post = []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(to)), eq.V("y"))}
	}
	return q
}

// TestDefaultCompactAfter: a session compacts once 64 departures have
// left dead slots, and not before.
func TestDefaultCompactAfter(t *testing.T) {
	s := stream.New(chainStore(1), stream.Options{})
	const n = 64
	for i := range n + 1 {
		if _, err := s.Join(userQuery("q"+strconv.Itoa(i), "U", "")); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range s.Queries()[:n] {
		if _, err := s.Leave(q.ID); err != nil {
			t.Fatal(err)
		}
		want := i + 1
		if want == n {
			want = 0
		}
		if got := s.Tombstones(); got != want {
			t.Fatalf("after %d departures: %d dead slots, want %d", i+1, got, want)
		}
	}
}

// TestOnUpdateSeesEveryEvent: the hook is handed every update, in order,
// refused events included, equal to what the call returns.
func TestOnUpdateSeesEveryEvent(t *testing.T) {
	var seen []stream.Update
	s := stream.New(chainStore(1), stream.Options{OnUpdate: func(u stream.Update) { seen = append(seen, u) }})
	var got []stream.Update
	for _, ev := range []stream.Event{
		{Kind: stream.JoinEvent, Query: userQuery("a", "A", "")},
		{Kind: stream.JoinEvent, Query: userQuery("a", "A", "")},
		{Kind: stream.LeaveEvent, ID: "nobody"},
		{Kind: stream.LeaveEvent, ID: "a"},
	} {
		up, _ := s.Apply(ev)
		got = append(got, up)
	}
	if !reflect.DeepEqual(seen, got) {
		t.Fatalf("OnUpdate saw %+v, the calls returned %+v", seen, got)
	}
}

// TestDuplicateIDNamesItsHolder: a join over a parked ID says so; one
// over a live ID does not.
func TestDuplicateIDNamesItsHolder(t *testing.T) {
	s := stream.New(chainStore(1), stream.Options{ParkUnsafe: true})
	for _, q := range []eq.Query{userQuery("a", "A", ""), userQuery("b", "A", ""), userQuery("x", "X", "A")} {
		if _, err := s.Join(q); err != nil {
			t.Fatal(err)
		}
	}
	for id, want := range map[string]string{"a": "stream: duplicate query ID: a", "x": "stream: duplicate query ID: x is parked"} {
		if _, err := s.Join(userQuery(id, "Y", "")); err == nil || err.Error() != want {
			t.Errorf("join over %s: %v, want %q", id, err, want)
		}
	}
}

// poisonStore fails every query whose body holds the constant poison.
type poisonStore struct {
	db.Store
}

var errPoison = errors.New("store: poisoned body")

func (p poisonStore) SolveUnder(body []eq.Atom, s *unify.Subst) (db.Binding, bool, error) {
	for _, a := range body {
		for _, t := range a.Args {
			if t == eq.C("poison") {
				return db.Binding{}, false, errPoison
			}
		}
	}
	return p.Store.SolveUnder(body, s)
}

// TestParkedRetryFailureSurfaces: a departure whose parked retry fails
// at the store admits the retry, as a join would, and reports the
// failure on its update, naming the retried query.
func TestParkedRetryFailureSurfaces(t *testing.T) {
	s := stream.New(poisonStore{chainStore(1)}, stream.Options{ParkUnsafe: true})
	x := userQuery("x", "X", "A")
	x.Body = []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("poison"))}
	for _, q := range []eq.Query{userQuery("a", "A", ""), userQuery("b", "A", ""), x} {
		if _, err := s.Join(q); err != nil {
			t.Fatal(err)
		}
	}
	up, err := s.Leave("b")
	if !errors.Is(err, errPoison) || !strings.HasPrefix(err.Error(), "stream: parked retry of x: ") || !up.Admitted || len(up.AdmittedParked) != 1 {
		t.Fatalf("leave b: %+v, %v; want x admitted and its retry's failure", up, err)
	}
}

// TestStatusTraceOnlyWhenAsked: a status carries a trace only when one
// is asked for.
func TestStatusTraceOnlyWhenAsked(t *testing.T) {
	s := stream.New(chainStore(1), stream.Options{})
	if _, err := s.Join(userQuery("a", "A", "")); err != nil {
		t.Fatal(err)
	}
	for _, with := range []bool{false, true} {
		if st, err := s.Status(with); err != nil || (st.Trace != nil) != with {
			t.Fatalf("Status(%v): trace %v, %v", with, st.Trace, err)
		}
	}
}

// TestResultAgreesWithStatus: Result is Status's result, and both fail
// when the selected set has a free variable and the database no value
// to give it.
func TestResultAgreesWithStatus(t *testing.T) {
	s := stream.New(chainStore(1), stream.Options{})
	for _, q := range []eq.Query{userQuery("a", "A", "B"), userQuery("b", "B", "")} {
		if _, err := s.Join(q); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Result()
	st, serr := s.Status(false)
	if err != nil || serr != nil || res == nil || !reflect.DeepEqual(res, st.Result) {
		t.Fatalf("Result %+v, %v; Status %+v, %v", res, err, st.Result, serr)
	}
	empty := stream.New(db.NewInstance(), stream.Options{})
	if _, err := empty.Join(eq.Query{ID: "free", Head: []eq.Atom{eq.NewAtom("R", eq.C("F"), eq.V("x"))}}); err != nil {
		t.Fatal(err)
	}
	if res, err := empty.Result(); err == nil {
		t.Fatalf("Result over an empty domain: %+v, want an error", res)
	}
	if st, err := empty.Status(false); err == nil {
		t.Fatalf("Status over an empty domain: %+v, want an error", st)
	}
}
