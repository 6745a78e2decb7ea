package entangled_test

import (
	"testing"

	"entangled"
)

// TestFacadeQuickstart exercises the re-exported API end to end the way
// the README shows it.
func TestFacadeQuickstart(t *testing.T) {
	inst := entangled.NewInstance()
	flights := inst.CreateRelation("Flights", "fid", "dest")
	flights.Insert("101", "Zurich")

	qs, err := entangled.ParseSet(`
query gwyneth {
  post: R(Chris, x)
  head: R(Gwyneth, x)
  body: Flights(x, Zurich)
}
query chris {
  head: R(Chris, y)
  body: Flights(y, Zurich)
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !entangled.IsSafe(qs) {
		t.Fatal("set must be safe")
	}
	if entangled.IsUnique(qs) {
		t.Fatal("the 2-node graph with a single edge is not strongly connected, so the set is not unique — exactly the case §4 unlocks")
	}
	res, err := entangled.Coordinate(qs, inst, entangled.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 2 {
		t.Fatalf("result = %v", res)
	}
	if err := entangled.Verify(qs, res.Set, res.Values, inst); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAtomBuilders(t *testing.T) {
	a := entangled.NewAtom("R", entangled.C("Chris"), entangled.V("x"))
	if a.String() != "R(Chris, x)" {
		t.Fatalf("atom = %s", a)
	}
}

func TestFacadeCoordinator(t *testing.T) {
	inst := entangled.NewInstance()
	fl := inst.CreateRelation("Flights", "fid", "dest")
	fl.Insert("101", "Zurich")
	c := entangled.NewCoordinator(inst)
	q, err := entangled.Parse(`query solo { head: R(Me, x) body: Flights(x, Zurich) }`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Coordinated) != 1 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestFacadeAllCandidatesAndSnapshot(t *testing.T) {
	inst := entangled.NewInstance()
	fl := inst.CreateRelation("Flights", "fid", "dest")
	fl.Insert("101", "Zurich")
	qs, err := entangled.ParseSet(`
query gwyneth { post: R(Chris, x) head: R(Gwyneth, x) body: Flights(x, Zurich) }
query chris { head: R(Chris, y) body: Flights(y, Zurich) }`)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := entangled.AllCandidates(qs, inst, entangled.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 || len(cands[0].Set) != 2 || len(cands[1].Set) != 1 {
		t.Fatalf("candidates: %v", cands)
	}
	res, err := entangled.Coordinate(qs, inst, entangled.Options{})
	if err != nil || res.Size() != 2 {
		t.Fatalf("coordinate: %v %v", res, err)
	}
}
