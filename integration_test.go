package entangled_test

import (
	"strings"
	"testing"

	"entangled"
	"entangled/internal/consistent"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/sat"
	"entangled/internal/system"
	"entangled/internal/workload"
)

// TestExample1UniquenessFragility reproduces Example 1 of the paper's
// introduction: the band members' query set is safe and unique until
// Gwyneth submits a request to fly with her husband, which breaks
// uniqueness (but not safety) — the exact situation §4 is built for.
func TestExample1UniquenessFragility(t *testing.T) {
	band := eq.MustParseSet(`
query chris {
  post: R(Guy, x1)
  head: R(Chris, x1)
  body: Flights(x1, Zurich)
}
query guy {
  post: R(Chris, y1)
  head: R(Guy, y1)
  body: Flights(y1, Zurich)
}`)
	if !coord.IsSafe(band) || !coord.IsUnique(band) {
		t.Fatal("the band alone is safe and unique")
	}

	withGwyneth := append(append([]eq.Query{}, band...), eq.MustParseSet(`
query gwyneth {
  post: R(Chris, z)
  head: R(Gwyneth, z)
  body: Flights(z, Zurich)
}`)...)
	if !coord.IsSafe(withGwyneth) {
		t.Fatal("adding Gwyneth keeps the set safe")
	}
	if coord.IsUnique(withGwyneth) {
		t.Fatal("adding Gwyneth breaks uniqueness")
	}

	inst := entangled.NewInstance()
	fl := inst.CreateRelation("Flights", "fid", "dest")
	fl.Insert("101", "Zurich")

	// The baseline refuses; the SCC algorithm coordinates everybody
	// (Gwyneth's candidate R(gwyneth) covers all three).
	if _, err := coord.GuptaCoordinate(withGwyneth, inst); err == nil {
		t.Fatal("baseline must reject the non-unique set")
	}
	res, err := entangled.Coordinate(withGwyneth, inst, entangled.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 3 {
		t.Fatalf("all three share flight 101: %v", res)
	}
	if err := entangled.Verify(withGwyneth, res.Set, res.Values, inst); err != nil {
		t.Fatal(err)
	}
}

// TestClassEnrollmentScenario is the introduction's "enroll in a class
// one of your friends is also taking" use case on the consistent
// algorithm, with a capacity-like constraint expressed through the data.
func TestClassEnrollmentScenario(t *testing.T) {
	inst := entangled.NewInstance()
	classes := inst.CreateRelation("Classes", "section", "course", "slot")
	classes.Insert("cs101-a", "CS101", "mon9")
	classes.Insert("cs101-b", "CS101", "tue9")
	classes.Insert("ml201-a", "ML201", "mon9")
	classes.BuildIndex(1)
	fr := inst.CreateRelation("Friends", "user", "friend")
	for _, p := range [][2]eq.Value{{"ana", "bo"}, {"bo", "ana"}, {"bo", "cy"}, {"cy", "bo"}} {
		fr.Insert(p[0], p[1])
	}
	fr.BuildIndex(0)

	sch := entangled.ConsistentSchema{
		Table:     "Classes",
		KeyCol:    0,
		CoordCols: []int{1, 2}, // same course, same time slot
		Friends:   "Friends",
	}
	// Ana will take anything with a friend; Bo insists on CS101; Cy
	// insists on ML201 and needs a friend (only Bo) — so Cy cannot be
	// satisfied, while Ana and Bo meet in CS101.
	qs := []entangled.ConsistentQuery{
		{User: "ana", Coord: []entangled.Pref{consistent.DontCare, consistent.DontCare}, Partners: []entangled.Partner{consistent.Friend}},
		{User: "bo", Coord: []entangled.Pref{consistent.Is("CS101"), consistent.DontCare}, Partners: []entangled.Partner{consistent.Friend}},
		{User: "cy", Coord: []entangled.Pref{consistent.Is("ML201"), consistent.DontCare}, Partners: []entangled.Partner{consistent.Friend}},
	}
	res, err := entangled.CoordinateConsistent(sch, qs, inst, consistent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Members) != 2 {
		t.Fatalf("Ana and Bo enroll together: %v", res)
	}
	if res.Value[0] != "CS101" {
		t.Fatalf("course = %v", res.Value)
	}
	if res.Keys[0] != res.Keys[1] {
		// Same course and slot; with distinct sections both are legal,
		// but this data has one section per (course, slot).
		t.Fatalf("keys: %v", res.Keys)
	}
}

// TestOnlineChainSoak drives the online coordinator with a 120-query
// chain submitted head first: nothing can be answered until the final
// tail query arrives, at which point the whole chain coordinates in one
// batch. Every answered batch is verified against Definition 1.
func TestOnlineChainSoak(t *testing.T) {
	inst := db.NewInstance()
	workload.UserTable(inst, 500)
	qs := workload.ListQueries(120, 500)

	c := system.New(inst)
	answered := 0
	for i, q := range qs {
		out, err := c.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(qs)-1 && len(out.Coordinated) != 0 {
			t.Fatalf("query %d answered early", i)
		}
		answered += len(out.Coordinated)
		// Spot-verify each answered batch: every grounded body atom must
		// be in the instance.
		for _, cq := range out.Coordinated {
			vals := out.Values[cq.ID]
			for _, b := range cq.Body {
				g := b.Clone()
				for k, tm := range g.Args {
					if tm.IsVar() {
						v, ok := vals[tm.Name]
						if !ok {
							t.Fatalf("query %s: unassigned %s", cq.ID, tm.Name)
						}
						g.Args[k] = eq.C(v)
					}
				}
				if !inst.Contains(g) {
					t.Fatalf("query %s: grounded body %s missing", cq.ID, g)
				}
			}
		}
	}
	// The tail's arrival completes the one candidate covering the chain.
	if answered != len(qs) {
		t.Fatalf("answered %d of %d", answered, len(qs))
	}
	if len(c.Pending()) != 0 {
		t.Fatalf("pending = %d", len(c.Pending()))
	}
}

// TestHardnessPipelineOnDIMACS runs the full hardness pipeline the
// cmd/hardness tool uses, from DIMACS text to both reductions.
func TestHardnessPipelineOnDIMACS(t *testing.T) {
	// (x1 | x2 | x3) & (!x1 | !x2 | !x3) — satisfiable.
	f, err := sat.ParseDIMACS(strings.NewReader("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	_, satisfiable := f.Solve()
	if !satisfiable {
		t.Fatal("fixture is satisfiable")
	}
	in1, err := sat.ReduceTheorem1(f)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := coord.BruteForceExists(in1.Queries, in1.DB)
	if err != nil || !ok {
		t.Fatalf("Theorem 1: ok=%v err=%v", ok, err)
	}
	in2, err := sat.ReduceTheorem2(f)
	if err != nil {
		t.Fatal(err)
	}
	max, err := coord.BruteForceMax(in2.Queries, in2.DB)
	if err != nil {
		t.Fatal(err)
	}
	if max.Size() != in2.Target {
		t.Fatalf("Theorem 2: max %d, target %d", max.Size(), in2.Target)
	}
}
