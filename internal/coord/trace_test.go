package coord

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

func TestTraceFlightHotel(t *testing.T) {
	qs, in := flightHotel()
	tr := &Trace{}
	res, err := SCCCoordinate(qs, in, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 2 {
		t.Fatalf("res = %v", res)
	}
	if len(tr.Pruned) != 0 {
		t.Fatalf("nothing prunes here: %v", tr.Pruned)
	}
	if len(tr.Components) != 3 {
		t.Fatalf("three components: %v", tr.Components)
	}
	// Reverse topological order: {qC,qG} first, then qJ, then qW. The
	// walk searched them the other way round, largest set first.
	if len(tr.Components[0].Members) != 2 || tr.Components[0].Status != "grounded" {
		t.Fatalf("component 0: %+v", tr.Components[0])
	}
	if tr.Components[1].Status != "no tuple" {
		t.Fatalf("qJ should fail to ground: %+v", tr.Components[1])
	}
	if tr.Components[2].Status != "no tuple" || len(tr.Components[2].Set) != 4 {
		t.Fatalf("qW's set of four should fail to ground: %+v", tr.Components[2])
	}
	// The grounded component's combined query mentions both bodies.
	if !strings.Contains(tr.Components[0].Combined, "F(") || !strings.Contains(tr.Components[0].Combined, "H(") {
		t.Fatalf("combined = %q", tr.Components[0].Combined)
	}
}

// TestTracePruneEvents: a's postcondition has no provider, so the
// cascade prunes a, and then c, whose only provider a was. b's body
// cannot be satisfied, which no prune event says: d's set, which holds
// b, is searched first and finds no tuple, and so does b's own.
func TestTracePruneEvents(t *testing.T) {
	qs := eq.MustParseSet(`
query a {
  post: R(UZ, x)
  head: R(UA, x)
  body: T(x)
}
query b {
  head: R(UB, y)
  body: Missing(y)
}
query c {
  post: R(UA, z)
  head: R(UC, z)
  body: T(z)
}
query d {
  post: R(UB, w)
  head: R(UD, w)
  body: T(w)
}`)
	in := db.NewInstance()
	tr1 := in.CreateRelation("T", "v")
	tr1.Insert("1")
	in.CreateRelation("Missing", "v")
	tr := &Trace{}
	res, err := SCCCoordinate(qs, in, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("nothing coordinates: %v", res)
	}
	want := []PruneEvent{{Query: 0, Reason: "unsatisfiable postcondition"}, {Query: 2, Reason: "unsatisfiable postcondition"}}
	if !reflect.DeepEqual(tr.Pruned, want) {
		t.Fatalf("a's postcondition prunes, then c's cascades: %v", tr.Pruned)
	}
	status := map[int]string{}
	for _, ev := range tr.Components {
		status[ev.Members[0]] = ev.Status
	}
	if want := map[int]string{0: "pruned", 1: "no tuple", 2: "pruned", 3: "no tuple"}; !reflect.DeepEqual(status, want) {
		t.Fatalf("statuses %v, want %v", status, want)
	}
}

// TestTraceRender renders a rank walk's trace and a family walk's,
// where qW is skipped once qJ has failed.
func TestTraceRender(t *testing.T) {
	qs, in := flightHotel()
	tr, family := &Trace{}, &Trace{}
	if _, err := SCCCoordinate(qs, in, Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if _, err := AllCandidates(qs, in, Options{Trace: family}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tr.Render(&sb, qs); err != nil {
		t.Fatal(err)
	}
	if err := family.Render(&sb, qs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"qC", "qG", "grounded", "no tuple", "F(q0.x1, Madrid)", "{qW}: successor failed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestFailedRunLeavesTraceEmpty: a traced run that the store fails adds
// nothing to the caller's trace — not even the prune events of the
// cascade that ran before a grounding failed, which the reference walk
// leaves behind.
func TestFailedRunLeavesTraceEmpty(t *testing.T) {
	const rows = 40
	qs := stranded(workload.RandomSafeQueries(40, rows, 0.03, 0.8, rand.New(rand.NewSource(43))), newWorkloadInstance(rows))
	store := &downStore{Store: newWorkloadInstance(rows), down: true}
	tr := &Trace{}
	if _, err := SCCCoordinate(qs, store, Options{Trace: tr}); !errors.Is(err, errDown) {
		t.Fatalf("err %v, want the store's", err)
	}
	if !reflect.DeepEqual(tr, &Trace{}) {
		t.Fatalf("a failed run left %+v in the trace", tr)
	}
	old := &Trace{}
	if _, err := oracleCoordinate(qs, store, Options{Trace: old}); !errors.Is(err, errDown) || len(old.Pruned) == 0 {
		t.Fatalf("the reference walk: err %v, trace %+v; want pruning to have finished first", err, old)
	}
}
