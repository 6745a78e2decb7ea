// Tests in the external test package so they can use the workload
// generators (which themselves import consistent) without a cycle.
package consistent_test

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"entangled/internal/consistent"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

// smallInstance builds a compact flights world: rows flights over
// distinctPairs (dest, day) pairs, plus a friendship graph.
func smallInstance(rows, distinctPairs, users int, friendP float64, rng *rand.Rand) *db.Instance {
	in := db.NewInstance()
	workload.FlightsTable(in, rows, distinctPairs)
	f := in.CreateRelation("Friends", "user", "friend")
	for i := 0; i < users; i++ {
		for j := 0; j < users; j++ {
			if i != j && rng.Float64() < friendP {
				f.Insert(workload.User(i), workload.User(j))
			}
		}
	}
	f.BuildIndex(0)
	return in
}

func TestToEntangledShape(t *testing.T) {
	sch := workload.FlightSchema()
	rng := rand.New(rand.NewSource(61))
	in := smallInstance(6, 3, 3, 1.0, rng)
	q := consistent.Query{
		User:     workload.User(0),
		Coord:    []consistent.Pref{consistent.Is("dest1"), consistent.DontCare},
		Own:      []consistent.Pref{consistent.Is("src0"), consistent.DontCare},
		Partners: []consistent.Partner{consistent.Friend, consistent.With(workload.User(2))},
	}
	e, err := consistent.ToEntangled(sch, q, in)
	if err != nil {
		t.Fatal(err)
	}
	// A set holding one query the schema cannot take is refused whole.
	bad := consistent.Query{User: workload.User(1), Coord: q.Coord}
	if set, err := consistent.ToEntangledSet(sch, []consistent.Query{q, bad}, in); set != nil || err == nil {
		t.Fatalf("ToEntangledSet with a query lacking own prefs = %v, %v; want nil and an error", set, err)
	}
	if len(e.Post) != 2 || len(e.Head) != 1 {
		t.Fatalf("shape: %v", e)
	}
	// Body: self atom + 2 partner atoms + 1 friendship atom.
	if len(e.Body) != 4 {
		t.Fatalf("body size = %d: %v", len(e.Body), e.Body)
	}
	if err := eq.Validate([]eq.Query{e}, in.Schema()); err != nil {
		t.Fatal(err)
	}
	// Coordination attributes are shared: the dest column of the self
	// atom and both partner atoms carry the same term.
	self := e.Body[0]
	if self.Args[1] != eq.C("dest1") {
		t.Fatalf("self dest = %v", self.Args[1])
	}
	var partnerAtoms []eq.Atom
	for _, a := range e.Body[1:] {
		if a.Rel == sch.Table {
			partnerAtoms = append(partnerAtoms, a)
		}
	}
	if len(partnerAtoms) != 2 {
		t.Fatalf("want 2 partner atoms, got %v", partnerAtoms)
	}
	for _, pa := range partnerAtoms {
		if pa.Args[1] != eq.C("dest1") {
			t.Fatalf("partner dest = %v, want the shared constant", pa.Args[1])
		}
		if pa.Args[2] != self.Args[2] {
			t.Fatalf("day must be the shared variable: %v vs %v", pa.Args[2], self.Args[2])
		}
		// Non-coordination attributes of partners are fresh variables.
		if !pa.Args[3].IsVar() || !pa.Args[4].IsVar() {
			t.Fatalf("partner own attrs must be variables: %v", pa)
		}
		if pa.Args[3] == self.Args[3] {
			t.Fatal("partner src must be distinct from self src")
		}
	}
}

// Proposition 1: for A-consistent query sets, a coordinating set exists
// iff one exists where all tuples agree on A. We check existence
// equivalence between the Consistent Coordination Algorithm (which only
// looks for same-value sets) and the exact brute-force solver on the
// translated entangled queries.
func TestQuickProposition1(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	sch := workload.FlightSchema()
	for trial := 0; trial < 60; trial++ {
		users := 2 + rng.Intn(4)
		in := smallInstance(4+rng.Intn(4), 2+rng.Intn(2), users, 0.5, rng)
		qs := workload.RandomFlightQueries(users, 2, 0.4, rng)
		res, err := consistent.Coordinate(sch, qs, in, consistent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eqs, err := consistent.ToEntangledSet(sch, qs, in)
		if err != nil {
			t.Fatal(err)
		}
		exists, err := coord.BruteForceExists(eqs, in)
		if err != nil {
			t.Fatal(err)
		}
		if (res != nil) != exists {
			t.Fatalf("trial %d: consistent=%v brute=%v\nqueries: %+v", trial, res != nil, exists, qs)
		}
	}
}

// Every coordinating set the algorithm returns is sound: each member's
// selected tuple satisfies its constraints and the shared value, each
// named partner is a member, and each friend slot is filled by a
// distinct member friend.
func TestQuickResultSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	sch := workload.FlightSchema()
	for trial := 0; trial < 80; trial++ {
		users := 2 + rng.Intn(6)
		in := smallInstance(6+rng.Intn(6), 3, users, 0.4, rng)
		qs := workload.RandomFlightQueries(users, 3, 0.3, rng)
		res, err := consistent.Coordinate(sch, qs, in, consistent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			continue
		}
		member := map[eq.Value]bool{}
		for _, i := range res.Members {
			member[qs[i].User] = true
		}
		fl, _ := in.Relation("Flights")
		for _, i := range res.Members {
			key := res.Keys[i]
			// Find the selected tuple.
			var tup db.Tuple
			for r := 0; r < fl.Len(); r++ {
				if fl.Tuple(r)[0] == key {
					tup = fl.Tuple(r)
					break
				}
			}
			if tup == nil {
				t.Fatalf("trial %d: key %v not in Flights", trial, key)
			}
			// Agrees with the chosen coordination value.
			for j, c := range sch.CoordCols {
				if tup[c] != res.Value[j] {
					t.Fatalf("trial %d: member %d tuple %v disagrees with value %v", trial, i, tup, res.Value)
				}
			}
			// Satisfies the member's own constants.
			for j, p := range qs[i].Coord {
				if !p.Any && tup[sch.CoordCols[j]] != p.Val {
					t.Fatalf("trial %d: coord constraint violated", trial)
				}
			}
			for j, p := range qs[i].Own {
				if !p.Any && tup[sch.OwnCols[j]] != p.Val {
					t.Fatalf("trial %d: own constraint violated", trial)
				}
			}
			// Partner requirements.
			friendSlots := 0
			for _, p := range qs[i].Partners {
				if p.AnyFriend {
					friendSlots++
					continue
				}
				if !member[p.Name] {
					t.Fatalf("trial %d: named partner %v missing", trial, p.Name)
				}
			}
			if friendSlots > 0 {
				friends := map[eq.Value]bool{}
				fr, _ := in.Relation("Friends")
				for r := 0; r < fr.Len(); r++ {
					tp := fr.Tuple(r)
					if tp[0] == qs[i].User && member[tp[1]] && tp[1] != qs[i].User {
						friends[tp[1]] = true
					}
				}
				if len(friends) < friendSlots {
					t.Fatalf("trial %d: %d friend slots, %d member friends", trial, friendSlots, len(friends))
				}
			}
		}
	}
}

// The kernel's queue-driven cleaning and the oracle's full sweeps always
// agree.
func TestQuickCleaningAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	sch := workload.FlightSchema()
	for trial := 0; trial < 60; trial++ {
		users := 2 + rng.Intn(6)
		in := smallInstance(5+rng.Intn(5), 3, users, 0.4, rng)
		qs := workload.RandomFlightQueries(users, 3, 0.3, rng)
		a, err := consistent.Coordinate(sch, qs, in, consistent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := consistent.OracleCoordinate(sch, qs, in, consistent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if (a == nil) != (b == nil) {
			t.Fatalf("trial %d: cleaning strategies disagree on existence", trial)
		}
		if a == nil {
			continue
		}
		if len(a.Members) != len(b.Members) {
			t.Fatalf("trial %d: member counts differ: %v vs %v", trial, a.Members, b.Members)
		}
		for i := range a.Members {
			if a.Members[i] != b.Members[i] {
				t.Fatalf("trial %d: members differ: %v vs %v", trial, a.Members, b.Members)
			}
		}
	}
}

// The worst-case workload of Figures 7/8 always coordinates everybody.
func TestWorstCaseWorkloadAllCoordinate(t *testing.T) {
	sch := workload.FlightSchema()
	for _, users := range []int{2, 10, 25} {
		in := db.NewInstance()
		workload.FlightsTable(in, 50, 50)
		workload.CompleteFriends(in, users)
		qs := workload.FlightQueries(users)
		res, err := consistent.Coordinate(sch, qs, in, consistent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res == nil || len(res.Members) != users {
			t.Fatalf("users=%d: %v", users, res)
		}
		// Everyone flies to the same (dest, day).
		for _, i := range res.Members {
			key := res.Keys[i]
			if key == "" {
				t.Fatalf("missing key for member %d", i)
			}
		}
		// DB queries: one batch asking one option list, as every
		// preference is a wildcard, and one asking users friend lists.
		if res.DBQueries != 2 {
			t.Fatalf("users=%d: DBQueries=%d, want 2", users, res.DBQueries)
		}
	}
}

// TestCostIsDistinctQuestions holds §5's cost equation: a call asks one
// question per distinct (Coord, Own) preference vector, all in one
// database query, and one per friend list of a query with an option (a
// query and a relation its friend slots draw from), in one database
// query per relation those lists draw from, and no other. Result.DBQueries
// and the instance's own counter both read it, a call that finds no set
// included, on random sets and on the Figure-7/8 inputs, where 2 queries
// serve n alike wildcard users.
func TestCostIsDistinctQuestions(t *testing.T) {
	type input struct {
		name string
		qs   []consistent.Query
		in   *db.Instance
	}
	var inputs []input
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 120; trial++ {
		users := 2 + rng.Intn(20)
		in := smallInstance(6+rng.Intn(30), 2+rng.Intn(3), users, 0.3+0.4*rng.Float64(), rng)
		inputs = append(inputs, input{"random", workload.RandomFlightQueries(users, 3, 0.6*rng.Float64(), rng), in})
	}
	for _, rows := range []int{100, 400} { // Figure 7: 50 users, rows values
		in := db.NewInstance()
		workload.FlightsTable(in, rows, rows)
		workload.CompleteFriends(in, 50)
		inputs = append(inputs, input{"Figure 7", workload.FlightQueries(50), in})
	}
	for _, users := range []int{10, 25, 60} { // Figure 8: 100 flights
		in := db.NewInstance()
		workload.FlightsTable(in, 100, 100)
		workload.CompleteFriends(in, users)
		inputs = append(inputs, input{"Figure 8", workload.FlightQueries(users), in})
	}
	sch := workload.FlightSchema()
	found, shared := 0, 0
	for n, c := range inputs {
		var trace consistent.Trace
		before := c.in.QueriesIssued()
		res, err := consistent.Coordinate(sch, c.qs, c.in, consistent.Options{Trace: &trace})
		if err != nil {
			t.Fatal(err)
		}
		issued := c.in.QueriesIssued() - before
		vectors, rels := map[string]bool{}, map[string]bool{}
		for i, q := range c.qs {
			key := ""
			for _, p := range append(slices.Clone(q.Coord), q.Own...) {
				if p.Any {
					key += "* "
				} else {
					key += strconv.Quote(string(p.Val)) + " "
				}
			}
			vectors[key] = true
			if trace.OptionCounts[i] == 0 {
				continue
			}
			for _, p := range q.Partners {
				if p.AnyFriend {
					rels[cmp.Or(p.Rel, sch.Friends)] = true
				}
			}
		}
		want := 1 + int64(len(rels))
		if c.name == "random" && len(vectors) < len(c.qs) {
			shared++
		}
		if issued != want {
			t.Fatalf("input %d (%s): the instance counted %d queries, want one batch of vectors + one of friend lists per relation, %d", n, c.name, issued, want)
		}
		if res != nil {
			found++
			if res.DBQueries != want {
				t.Fatalf("input %d (%s): DBQueries %d, want %d", n, c.name, res.DBQueries, want)
			}
		}
		if c.name != "random" && want != 2 {
			t.Fatalf("input %d (%s): %d queries for %d users, want 2", n, c.name, want, len(c.qs))
		}
	}
	if found < 40 || shared < 40 {
		t.Fatalf("of %d inputs %d coordinated and %d random ones shared a vector: the generator under-draws", len(inputs), found, shared)
	}
	t.Logf("%d inputs, %d coordinated, %d random ones shared a vector", len(inputs), found, shared)
}

// TestCustomSelector: a caller's own criterion — prefer the candidate
// holding a specific user, the paper's VIP client — is a choice over
// Result.Candidates, which lists the group the default passes over.
func TestCustomSelector(t *testing.T) {
	in := db.NewInstance()
	fl := in.CreateRelation("Flights", "fid", "dest", "day", "src", "airline")
	fl.Insert("f1", "A", "d1", "s", "a")
	fl.Insert("f2", "B", "d2", "s", "a")
	fr := in.CreateRelation("Friends", "user", "friend")
	fr.Insert("U0", "U1")
	fr.Insert("U1", "U0")
	fr.Insert("U2", "U3")
	fr.Insert("U3", "U2")
	sch := workload.FlightSchema()
	qs := []consistent.Query{
		{User: "U0", Coord: []consistent.Pref{consistent.Is("A"), consistent.DontCare}, Own: []consistent.Pref{consistent.DontCare, consistent.DontCare}, Partners: []consistent.Partner{consistent.Friend}},
		{User: "U1", Coord: []consistent.Pref{consistent.Is("A"), consistent.DontCare}, Own: []consistent.Pref{consistent.DontCare, consistent.DontCare}, Partners: []consistent.Partner{consistent.Friend}},
		{User: "U2", Coord: []consistent.Pref{consistent.Is("B"), consistent.DontCare}, Own: []consistent.Pref{consistent.DontCare, consistent.DontCare}, Partners: []consistent.Partner{consistent.Friend}},
		{User: "U3", Coord: []consistent.Pref{consistent.Is("B"), consistent.DontCare}, Own: []consistent.Pref{consistent.DontCare, consistent.DontCare}, Partners: []consistent.Partner{consistent.Friend}},
	}
	// Default: first maximal candidate (A-group, discovered first).
	res, err := consistent.Coordinate(sch, qs, in, consistent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value[0] != "A" {
		t.Fatalf("default selector: %v", res.Value)
	}
	// Prefer the candidate containing query 2.
	vip := slices.IndexFunc(res.Candidates, func(c consistent.Candidate) bool { return slices.Contains(c.Members, 2) })
	if vip < 0 {
		t.Fatalf("no candidate holds U2: %+v", res.Candidates)
	}
	if c := res.Candidates[vip]; c.Value[0] != "B" || !slices.Equal(c.Members, []int{2, 3}) {
		t.Fatalf("candidate holding U2: %+v, want the B-group [2 3]", c)
	}
}
