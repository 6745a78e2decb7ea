package db

import (
	"strings"
	"testing"

	"entangled/internal/eq"
)

func TestExplainOrdersByBoundness(t *testing.T) {
	in := flightsInstance()
	// The constant-bearing atom must run first; the joined atom second
	// through the shared loc variable.
	body := []eq.Atom{
		eq.NewAtom("Hotels", eq.V("h"), eq.V("loc")),
		eq.NewAtom("Flights", eq.V("f"), eq.C("Zurich")),
	}
	plan, err := in.Explain(body)
	if err != nil {
		t.Fatal(err)
	}
	if plan[0].Atom.Rel != "Flights" {
		t.Fatalf("constant atom should lead the plan: %v", plan)
	}
	if plan[0].Access != "index(dest)" {
		t.Fatalf("Flights is indexed on dest: %v", plan[0])
	}
	if plan[1].Atom.Rel != "Hotels" || plan[1].Access != "scan" {
		t.Fatalf("Hotels has no index: %v", plan[1])
	}
	text := RenderPlan(plan)
	if !strings.Contains(text, "index(dest)") || !strings.Contains(text, "scan") {
		t.Fatalf("render: %s", text)
	}
}

func TestExplainMatchesExecution(t *testing.T) {
	// The plan's first step must be the atom the executor actually picks
	// — both use the same heuristic. Verify by running a query whose
	// only fast path is the planned order.
	in := flightsInstance()
	body := []eq.Atom{
		eq.NewAtom("Flights", eq.V("x"), eq.C("Paris")),
		eq.NewAtom("Hotels", eq.V("h"), eq.V("loc")),
	}
	plan, err := in.Explain(body)
	if err != nil {
		t.Fatal(err)
	}
	if plan[0].Atom.Rel != "Flights" {
		t.Fatalf("plan: %v", plan)
	}
	if _, ok, err := in.Solve(body); err != nil || !ok {
		t.Fatalf("execution: %v %v", ok, err)
	}
}

func TestExplainErrors(t *testing.T) {
	in := flightsInstance()
	if _, err := in.Explain([]eq.Atom{eq.NewAtom("Nope", eq.V("x"))}); err == nil {
		t.Fatal("unknown relation must error")
	}
	if _, err := in.Explain([]eq.Atom{eq.NewAtom("Flights", eq.V("x"))}); err == nil {
		t.Fatal("arity mismatch must error")
	}
}
