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
	// Reverse topological order: {qC,qG} first, then qJ, then qW.
	if len(tr.Components[0].Members) != 2 || tr.Components[0].Status != "grounded" {
		t.Fatalf("component 0: %+v", tr.Components[0])
	}
	if tr.Components[1].Status != "no tuple" {
		t.Fatalf("qJ should fail to ground: %+v", tr.Components[1])
	}
	if tr.Components[2].Status != "successor failed" {
		t.Fatalf("qW should be skipped: %+v", tr.Components[2])
	}
	// The grounded component's combined query mentions both bodies.
	if !strings.Contains(tr.Components[0].Combined, "F(") || !strings.Contains(tr.Components[0].Combined, "H(") {
		t.Fatalf("combined = %q", tr.Components[0].Combined)
	}
}

func TestTracePruneEvents(t *testing.T) {
	qs := eq.MustParseSet(`
query a {
  post: R(UB, x)
  head: R(UA, x)
  body: T(x)
}
query b {
  head: R(UB, y)
  body: Missing(y)
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
	if len(tr.Pruned) != 2 {
		t.Fatalf("b's body prunes, then a's postcondition cascades: %v", tr.Pruned)
	}
	if tr.Pruned[0].Reason != "unsatisfiable body" || tr.Pruned[1].Reason != "unsatisfiable postcondition" {
		t.Fatalf("prune reasons: %v", tr.Pruned)
	}
}

func TestTraceRender(t *testing.T) {
	qs, in := flightHotel()
	tr := &Trace{}
	if _, err := SCCCoordinate(qs, in, Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tr.Render(&sb, qs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"qC", "qG", "grounded", "no tuple", "successor failed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTracedRunMatchesPlain(t *testing.T) {
	qs, in := flightHotel()
	plain, err := SCCCoordinate(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := SCCCoordinate(qs, in, Options{Trace: &Trace{}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Size() != traced.Size() {
		t.Fatalf("trace must not change the result: %v vs %v", plain, traced)
	}
}

// TestFailedRunLeavesTraceEmpty: a traced run that the store fails adds
// nothing to the caller's trace — not even the prune events of the
// probes that succeeded before a grounding failed, which the reference
// walk leaves behind.
func TestFailedRunLeavesTraceEmpty(t *testing.T) {
	const rows = 40
	qs := workload.RandomSafeQueries(40, rows, 0.03, 0.8, rand.New(rand.NewSource(43)))
	for _, solveOnly := range []bool{true, false} {
		store := &downStore{Store: newWorkloadInstance(rows), down: !solveOnly, solveDown: solveOnly}
		tr := &Trace{}
		if _, err := SCCCoordinate(qs, store, Options{Trace: tr}); !errors.Is(err, errDown) {
			t.Fatalf("solveOnly=%v: err %v, want the store's", solveOnly, err)
		}
		if !reflect.DeepEqual(tr, &Trace{}) {
			t.Fatalf("solveOnly=%v: a failed run left %+v in the trace", solveOnly, tr)
		}
	}
	old := &Trace{}
	store := &downStore{Store: newWorkloadInstance(rows), solveDown: true}
	if _, err := oracleCoordinate(qs, store, Options{Trace: old}); !errors.Is(err, errDown) || len(old.Pruned) == 0 {
		t.Fatalf("the reference walk: err %v, trace %+v; want pruning to have finished first", err, old)
	}
}
