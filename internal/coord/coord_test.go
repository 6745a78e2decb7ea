package coord

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// zurichInstance builds the §2.1 example database.
func zurichInstance() *db.Instance {
	in := db.NewInstance()
	f := in.CreateRelation("Flights", "fid", "dest")
	f.Insert("101", "Zurich")
	f.Insert("102", "Paris")
	return in
}

// gwynethChris returns the two queries of §2.1: Gwyneth wants to fly
// with Chris to Zurich; Chris just wants a Zurich flight.
func gwynethChris() []eq.Query {
	return eq.MustParseSet(`
query gwyneth {
  post: R(Chris, x)
  head: R(Gwyneth, x)
  body: Flights(x, Zurich)
}
query chris {
  head: R(Chris, y)
  body: Flights(y, Zurich)
}`)
}

// flightHotel builds the §2.2 flight-hotel example: the Figure 1 query
// set and a database with flights and hotels. Paris is fully served;
// Athens has a hotel but its flight is distinct from the Paris flight,
// so qJ (who wants to share Chris's flight but fly to Athens) cannot
// coordinate, and neither can qW who depends on qJ's hotel.
func flightHotel() ([]eq.Query, *db.Instance) {
	qs := eq.MustParseSet(`
query qC {
  post: R(G, x1)
  head: R(C, x1), Q(C, x2)
  body: F(x1, x), H(x2, x)
}
query qG {
  post: R(C, y1), Q(C, y2)
  head: R(G, y1), Q(G, y2)
  body: F(y1, Paris), H(y2, Paris)
}
query qJ {
  post: R(C, z1), R(G, z1)
  head: R(J, z1), Q(J, z2)
  body: F(z1, Athens), H(z2, Athens)
}
query qW {
  post: R(C, w1), Q(J, w2)
  head: R(W, w1), Q(W, w2)
  body: F(w1, Madrid), H(w2, Madrid)
}`)
	in := db.NewInstance()
	f := in.CreateRelation("F", "fid", "dest")
	f.Insert("70", "Paris")
	f.Insert("71", "Athens")
	f.Insert("72", "Madrid")
	h := in.CreateRelation("H", "hid", "loc")
	h.Insert("h1", "Paris")
	h.Insert("h2", "Athens")
	h.Insert("h3", "Madrid")
	return qs, in
}

func TestExtendedGraphFlightHotel(t *testing.T) {
	qs, _ := flightHotel()
	edges := ExtendedGraph(qs)
	// Figure 2 shows exactly 7 extended edges.
	if len(edges) != 7 {
		t.Fatalf("extended edges = %d, want 7: %v", len(edges), edges)
	}
	g := coordinationGraph(len(qs), edges)
	// Figure in §2.3: qC->qG, qG->qC, qJ->qC, qJ->qG, qW->qC, qW->qJ.
	want := [][2]int{{0, 1}, {1, 0}, {2, 0}, {2, 1}, {3, 0}, {3, 2}}
	got := g.Edges()
	if len(got) != len(want) {
		t.Fatalf("coordination graph edges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coordination graph edges = %v, want %v", got, want)
		}
	}
}

func TestSafetyFlightHotel(t *testing.T) {
	qs, _ := flightHotel()
	if !IsSafe(qs) {
		t.Fatal("Figure 1 set is safe")
	}
	if IsUnique(qs) {
		t.Fatal("Figure 1 set is not unique (qW is reachable from nobody)")
	}
}

func TestUnsafeDetection(t *testing.T) {
	// Example 1: Gwyneth also wants to fly with Chris, making two heads
	// that Coldplay-member posts unify with? Simpler: two queries both
	// answering for Chris make any post naming Chris unsafe.
	qs := eq.MustParseSet(`
query band {
  post: R(Chris, x)
  head: R(Guy, x)
  body: Flights(x, Zurich)
}
query chris1 {
  head: R(Chris, y)
  body: Flights(y, Zurich)
}
query chris2 {
  head: R(Chris, z)
  body: Flights(z, Zurich)
}`)
	unsafe := UnsafeQueries(qs)
	if len(unsafe) != 1 || unsafe[0] != 0 {
		t.Fatalf("UnsafeQueries = %v, want [0]", unsafe)
	}
	if _, err := SCCCoordinate(qs, zurichInstance(), Options{}); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("want ErrUnsafe, got %v", err)
	}
	if _, err := GuptaCoordinate(qs, zurichInstance()); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("Gupta: want ErrUnsafe, got %v", err)
	}
}

func TestSCCGwynethChris(t *testing.T) {
	qs := gwynethChris()
	in := zurichInstance()
	res, err := SCCCoordinate(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 2 {
		t.Fatalf("want both queries, got %v", res)
	}
	if err := Verify(qs, res.Set, res.Values, in); err != nil {
		t.Fatal(err)
	}
	// Choose-1: Gwyneth and Chris share the same flight.
	if res.Values[0]["x"] != res.Values[1]["y"] {
		t.Fatalf("must share a flight: %v", res.Values)
	}
	if res.Values[0]["x"] != "101" {
		t.Fatalf("only flight 101 goes to Zurich: %v", res.Values)
	}
}

// TestResultIDs: a result names its members by query ID in set order.
func TestResultIDs(t *testing.T) {
	qs := gwynethChris()
	res, err := SCCCoordinate(qs, zurichInstance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.IDs(qs); len(got) != 2 || got[0] != "gwyneth" || got[1] != "chris" {
		t.Fatalf("IDs = %q, want [gwyneth chris]", got)
	}
}

func TestSCCGwynethChrisNoFlight(t *testing.T) {
	qs := gwynethChris()
	in := db.NewInstance()
	f := in.CreateRelation("Flights", "fid", "dest")
	f.Insert("102", "Paris")
	res, err := SCCCoordinate(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("no Zurich flight: want nil, got %v", res)
	}
}

func TestSCCFlightHotel(t *testing.T) {
	qs, in := flightHotel()
	res, err := SCCCoordinate(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 2 {
		t.Fatalf("want {qC, qG}, got %v", res)
	}
	if res.Set[0] != 0 || res.Set[1] != 1 {
		t.Fatalf("want queries 0 and 1, got %v", res.Set)
	}
	if err := Verify(qs, res.Set, res.Values, in); err != nil {
		t.Fatal(err)
	}
	// Chris and Guy share flight 70 to Paris and hotel h1.
	if res.Values[0]["x1"] != "70" || res.Values[1]["y1"] != "70" {
		t.Fatalf("flight values: %v", res.Values)
	}
	if res.Values[0]["x2"] != "h1" || res.Values[1]["y2"] != "h1" {
		t.Fatalf("hotel values: %v", res.Values)
	}
}

func TestSCCFlightHotelJonnyJoinsWhenPossible(t *testing.T) {
	// If Jonny also wants Paris (and shares Chris's flight), the set
	// {qC, qG, qJ} coordinates; qW still fails because no Madrid hotel
	// requirement conflicts — give Will a Madrid flight and Jonny's
	// hotel, which is in Paris, not Madrid... qW requires H(w2, Madrid)
	// yet also Q(J, w2): Jonny's hotel is in Paris, so qW fails.
	qs := eq.MustParseSet(`
query qC {
  post: R(G, x1)
  head: R(C, x1), Q(C, x2)
  body: F(x1, x), H(x2, x)
}
query qG {
  post: R(C, y1), Q(C, y2)
  head: R(G, y1), Q(G, y2)
  body: F(y1, Paris), H(y2, Paris)
}
query qJ {
  post: R(C, z1), R(G, z1)
  head: R(J, z1), Q(J, z2)
  body: F(z1, Paris), H(z2, Paris)
}
query qW {
  post: R(C, w1), Q(J, w2)
  head: R(W, w1), Q(W, w2)
  body: F(w1, Madrid), H(w2, Madrid)
}`)
	in := db.NewInstance()
	f := in.CreateRelation("F", "fid", "dest")
	f.Insert("70", "Paris")
	f.Insert("72", "Madrid")
	h := in.CreateRelation("H", "hid", "loc")
	h.Insert("h1", "Paris")
	h.Insert("h3", "Madrid")
	res, err := SCCCoordinate(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 3 {
		t.Fatalf("want {qC, qG, qJ}, got %v", res)
	}
	if err := Verify(qs, res.Set, res.Values, in); err != nil {
		t.Fatal(err)
	}
}

func TestSCCCandidateStructure(t *testing.T) {
	// The components-graph example of §4: q3+q4 -> q1+q2 <- q5+q6.
	// All unifications and groundings succeed, so the discovered
	// candidates are {q1,q2}, {q1,q2,q3,q4}, {q1,q2,q5,q6}; the winner
	// has size 4.
	qs := eq.MustParseSet(`
query q1 {
  post: R(U2, a)
  head: R(U1, a)
  body: T(a)
}
query q2 {
  post: R(U1, b)
  head: R(U2, b)
  body: T(b)
}
query q3 {
  post: R(U4, c), R(U1, c2)
  head: R(U3, c)
  body: T(c), T(c2)
}
query q4 {
  post: R(U3, d)
  head: R(U4, d)
  body: T(d)
}
query q5 {
  post: R(U6, e), R(U2, e2)
  head: R(U5, e)
  body: T(e), T(e2)
}
query q6 {
  post: R(U5, f)
  head: R(U6, f)
  body: T(f)
}`)
	in := db.NewInstance()
	tr := in.CreateRelation("T", "v")
	tr.Insert("1")
	res, err := SCCCoordinate(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 4 {
		t.Fatalf("want a 4-query set, got %v", res)
	}
	if err := Verify(qs, res.Set, res.Values, in); err != nil {
		t.Fatal(err)
	}
	// The union {q1..q6} may also coordinate, but the algorithm only
	// considers sets of the form R(q); brute force finds the bigger one.
	bf, err := BruteForceMax(qs, in)
	if err != nil {
		t.Fatal(err)
	}
	if bf.Size() != 6 {
		t.Fatalf("brute force should find all 6, got %v", bf)
	}
	if err := Verify(qs, bf.Set, bf.Values, in); err != nil {
		t.Fatal(err)
	}
}

// TestSCCPreferQuerySelector applies the paper's "VIP client"
// criterion the way a caller does: SCCCoordinate returns the least of
// two largest sets, {q1,q2,q3,q4}, and the largest AllCandidates entry
// holding the VIP's query — q6, index 5 — is the other, {q1,q2,q5,q6}.
func TestSCCPreferQuerySelector(t *testing.T) {
	qs := eq.MustParseSet(`
query q1 {
  post: R(U2, a)
  head: R(U1, a)
  body: T(a)
}
query q2 {
  post: R(U1, b)
  head: R(U2, b)
  body: T(b)
}
query q3 {
  post: R(U4, c), R(U1, c2)
  head: R(U3, c)
  body: T(c), T(c2)
}
query q4 {
  post: R(U3, d)
  head: R(U4, d)
  body: T(d)
}
query q5 {
  post: R(U6, e), R(U2, e2)
  head: R(U5, e)
  body: T(e), T(e2)
}
query q6 {
  post: R(U5, f)
  head: R(U6, f)
  body: T(f)
}`)
	in := db.NewInstance()
	tr := in.CreateRelation("T", "v")
	tr.Insert("1")
	res, err := SCCCoordinate(qs, in, Options{})
	if err != nil || !slices.Equal(res.Set, []int{0, 1, 2, 3}) {
		t.Fatalf("largest set: %v, %v; want [0 1 2 3]", res, err)
	}
	cands, err := AllCandidates(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vip := slices.IndexFunc(cands, func(c CandidateSet) bool { return slices.Contains(c.Set, 5) })
	if vip < 0 {
		t.Fatalf("no candidate holds q6: %v", cands)
	}
	if got := cands[vip].Set; !slices.Equal(got, []int{0, 1, 4, 5}) {
		t.Fatalf("largest candidate holding q6: %v, want [0 1 4 5]", got)
	}
	if err := Verify(qs, cands[vip].Set, cands[vip].Values, in); err != nil {
		t.Fatal(err)
	}
}

func TestSCCPruningCascade(t *testing.T) {
	// A chain where the tail's body is unsatisfiable: everything that
	// transitively depends on it must be pruned, leaving only the free
	// tail-less query.
	qs := eq.MustParseSet(`
query a {
  post: R(UB, x)
  head: R(UA, x)
  body: T(x)
}
query b {
  post: R(UC, y)
  head: R(UB, y)
  body: T(y)
}
query c {
  head: R(UC, z)
  body: Missing(z)
}
query d {
  head: R(UD, w)
  body: T(w)
}`)
	in := db.NewInstance()
	tr := in.CreateRelation("T", "v")
	tr.Insert("1")
	in.CreateRelation("Missing", "v") // empty: c's body cannot ground
	res, err := SCCCoordinate(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 1 || res.Set[0] != 3 {
		t.Fatalf("only query d coordinates, got %v", res)
	}
	if err := Verify(qs, res.Set, res.Values, in); err != nil {
		t.Fatal(err)
	}
}

func TestSCCEmptyInput(t *testing.T) {
	res, err := SCCCoordinate(nil, db.NewInstance(), Options{})
	if err != nil || res != nil {
		t.Fatalf("empty input: res=%v err=%v", res, err)
	}
}

func TestSCCSelfSatisfyingQuery(t *testing.T) {
	// A query whose post unifies with its own head coordinates alone.
	qs := eq.MustParseSet(`
query selfie {
  post: R(Me, x)
  head: R(Me, y)
  body: T(x), T(y)
}`)
	in := db.NewInstance()
	tr := in.CreateRelation("T", "v")
	tr.Insert("7")
	res, err := SCCCoordinate(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 1 {
		t.Fatalf("self-satisfying query must coordinate: %v", res)
	}
	if err := Verify(qs, res.Set, res.Values, in); err != nil {
		t.Fatal(err)
	}
	if res.Values[0]["x"] != res.Values[0]["y"] {
		t.Fatalf("x and y must be unified: %v", res.Values)
	}
}

func TestGuptaRequiresUniqueness(t *testing.T) {
	qs, in := flightHotel()
	if _, err := GuptaCoordinate(qs, in); !errors.Is(err, ErrNotUnique) {
		t.Fatalf("want ErrNotUnique, got %v", err)
	}
}

func TestGuptaOnUniqueSet(t *testing.T) {
	// A 2-cycle is safe and unique.
	qs := eq.MustParseSet(`
query p {
  post: R(UQ, a)
  head: R(UP, a)
  body: T(a)
}
query q {
  post: R(UP, b)
  head: R(UQ, b)
  body: T(b)
}`)
	in := db.NewInstance()
	tr := in.CreateRelation("T", "v")
	tr.Insert("1")
	if !IsSafe(qs) || !IsUnique(qs) {
		t.Fatal("2-cycle must be safe and unique")
	}
	g, err := GuptaCoordinate(qs, in)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2 {
		t.Fatalf("Gupta should coordinate both: %v", g)
	}
	if err := Verify(qs, g.Set, g.Values, in); err != nil {
		t.Fatal(err)
	}
	s, err := SCCCoordinate(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != g.Size() {
		t.Fatalf("SCC and Gupta disagree: %v vs %v", s, g)
	}
	if err := Verify(qs, s.Set, s.Values, in); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsBadSets(t *testing.T) {
	qs := gwynethChris()
	in := zurichInstance()
	res, err := SCCCoordinate(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Empty set.
	if err := Verify(qs, nil, res.Values, in); err == nil {
		t.Fatal("empty set must fail")
	}
	// Unassigned variable.
	bad := map[int]map[string]eq.Value{0: {}, 1: {}}
	if err := Verify(qs, res.Set, bad, in); err == nil {
		t.Fatal("unassigned variables must fail")
	}
	// Body atom not in the instance.
	bad2 := map[int]map[string]eq.Value{
		0: {"x": "999"},
		1: {"y": "999"},
	}
	if err := Verify(qs, res.Set, bad2, in); err == nil {
		t.Fatal("grounded body must be present")
	}
	// Post not among heads: drop Chris from the set.
	if err := Verify(qs, []int{0}, res.Values, in); err == nil {
		t.Fatal("Gwyneth alone leaves her postcondition unsatisfied")
	}
	// Duplicate members.
	if err := Verify(qs, []int{0, 0}, res.Values, in); err == nil {
		t.Fatal("duplicate members must fail")
	}
	// Out-of-range member.
	if err := Verify(qs, []int{0, 9}, res.Values, in); err == nil {
		t.Fatal("out-of-range member must fail")
	}
}

func TestDBQueriesCounted(t *testing.T) {
	qs, in := flightHotel()
	res, err := SCCCoordinate(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 component queries, largest set first: {qW}'s set and {qJ}'s
	// find no tuple, {qC,qG}'s grounds; no query is probed alone.
	if res.DBQueries != 3 {
		t.Fatalf("DBQueries = %d, want 3", res.DBQueries)
	}
}

func TestAllCandidates(t *testing.T) {
	// The §4 components-graph structure: candidates are {q1,q2},
	// {q1,q2,q3,q4}, {q1,q2,q5,q6}, sorted largest first.
	qs := eq.MustParseSet(`
query q1 { post: R(U2, a) head: R(U1, a) body: T(a) }
query q2 { post: R(U1, b) head: R(U2, b) body: T(b) }
query q3 { post: R(U4, c), R(U1, c2) head: R(U3, c) body: T(c), T(c2) }
query q4 { post: R(U3, d) head: R(U4, d) body: T(d) }
query q5 { post: R(U6, e), R(U2, e2) head: R(U5, e) body: T(e), T(e2) }
query q6 { post: R(U5, f) head: R(U6, f) body: T(f) }`)
	in := db.NewInstance()
	tr := in.CreateRelation("T", "v")
	tr.Insert("1")
	cands, err := AllCandidates(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3 {
		t.Fatalf("want 3 candidates, got %d: %v", len(cands), cands)
	}
	if len(cands[0].Set) != 4 || len(cands[1].Set) != 4 || len(cands[2].Set) != 2 {
		t.Fatalf("sizes: %d %d %d", len(cands[0].Set), len(cands[1].Set), len(cands[2].Set))
	}
	// Every candidate verifies against Definition 1.
	for _, c := range cands {
		if err := Verify(qs, c.Set, c.Values, in); err != nil {
			t.Fatalf("candidate %v: %v", c.Set, err)
		}
	}
}

func TestAllCandidatesEmpty(t *testing.T) {
	in := db.NewInstance()
	in.CreateRelation("T", "v") // empty
	qs := eq.MustParseSet(`query a { head: R(U0, x) body: T(x) }`)
	cands, err := AllCandidates(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Fatalf("no candidates over an empty table: %v", cands)
	}
}

func TestGuptaNoProviderReturnsNil(t *testing.T) {
	// Strongly connected pair, but one post names a user nobody answers
	// for: uniqueness's precondition (every post providable) fails and
	// the baseline reports "no coordinating set".
	qs := eq.MustParseSet(`
query p { post: R(UQ, a), R(UZ, a2) head: R(UP, a) body: T(a) }
query q { post: R(UP, b) head: R(UQ, b) body: T(b) }`)
	in := db.NewInstance()
	tr := in.CreateRelation("T", "v")
	tr.Insert("1")
	// The set is not even unique by the coordination graph? p->q (via
	// UQ), q->p (via UP); the UZ post has no edge, so the graph is still
	// strongly connected. GuptaCoordinate must detect the hopeless post.
	res, err := GuptaCoordinate(qs, in)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("unprovidable post: want nil, got %v", res)
	}
}

func TestGuptaUnificationClash(t *testing.T) {
	// The edge exists positionally (§2.3's definition only compares
	// constants per position) but the MGU fails: q's head repeats the
	// variable b, and p's post forces b to be both A and B.
	qs := eq.MustParseSet(`
query p { post: R(UQ, A, B) head: R(UP, u, v) body: T(u) }
query q { post: R(UP, c, d) head: R(UQ, b, b) body: T(b) }`)
	in := db.NewInstance()
	tr := in.CreateRelation("T", "v")
	tr.Insert("1")
	res, err := GuptaCoordinate(qs, in)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("constant clash: want nil, got %v", res)
	}
	// The SCC algorithm agrees: the 2-cycle is one component and its
	// unification fails, so nothing coordinates.
	res, err = SCCCoordinate(qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("SCC should agree: %v", res)
	}
}

func TestGuptaGroundingFailure(t *testing.T) {
	qs := eq.MustParseSet(`
query p { post: R(UQ, a) head: R(UP, a) body: T(a) }
query q { post: R(UP, b) head: R(UQ, b) body: Missing(b) }`)
	in := db.NewInstance()
	tr := in.CreateRelation("T", "v")
	tr.Insert("1")
	in.CreateRelation("Missing", "v")
	res, err := GuptaCoordinate(qs, in)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("empty Missing: want nil, got %v", res)
	}
}

func TestGuptaEmptyInput(t *testing.T) {
	res, err := GuptaCoordinate(nil, db.NewInstance())
	if err != nil || res != nil {
		t.Fatalf("empty input: %v %v", res, err)
	}
}

func TestSingleConnectedNoSolution(t *testing.T) {
	qs := eq.MustParseSet(`
query a { post: R(UB, x) head: R(UA, x) body: Missing(x) }
query b { head: R(UB, y) body: Missing(y) }`)
	in := db.NewInstance()
	in.CreateRelation("Missing", "v")
	res, err := SingleConnectedCoordinate(qs, in)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("nothing satisfiable: %v", res)
	}
}

// TestComponentsOfIsTheCondensation holds ComponentsOf to the
// condensation of CoordinationGraph: the same component DAG and the
// same members, each query in exactly one component.
func TestComponentsOfIsTheCondensation(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		qs := randomEntangled(rand.New(rand.NewSource(seed)), 2+int(seed%9))
		dag, members := ComponentsOf(qs)
		wantDag, comp, wantMembers := CoordinationGraph(qs).Condense()
		if !slices.Equal(dag.Edges(), wantDag.Edges()) || dag.N() != wantDag.N() {
			t.Fatalf("seed %d: DAG %d nodes %v, want %d nodes %v", seed, dag.N(), dag.Edges(), wantDag.N(), wantDag.Edges())
		}
		if !slices.EqualFunc(members, wantMembers, slices.Equal[[]int]) {
			t.Fatalf("seed %d: members %v, want %v", seed, members, wantMembers)
		}
		seen := 0
		for c, ms := range members {
			for _, q := range ms {
				if comp[q] != c {
					t.Fatalf("seed %d: query %d listed in component %d, belongs to %d", seed, q, c, comp[q])
				}
				seen++
			}
		}
		if seen != len(qs) {
			t.Fatalf("seed %d: members list %d queries, want %d", seed, seen, len(qs))
		}
	}
}

// TestVerifyRefusesADuplicateMember: a set naming a query twice is no
// coordinating set, even when the query alone is one.
func TestVerifyRefusesADuplicateMember(t *testing.T) {
	qs := []eq.Query{{ID: "q", Head: []eq.Atom{eq.NewAtom("R", eq.C("A"))}}}
	if err := Verify(qs, []int{0}, map[int]map[string]eq.Value{0: {}}, db.NewInstance()); err != nil {
		t.Fatal(err)
	}
	if err := Verify(qs, []int{0, 0}, map[int]map[string]eq.Value{0: {}}, db.NewInstance()); err == nil {
		t.Fatal("Verify accepts a set naming one query twice")
	}
}

// TestReleaseSkipsNilMaps: releasing a Result that holds a nil
// assignment pools no nil map for the next walk to write into.
func TestReleaseSkipsNilMaps(t *testing.T) {
	qs, in := flightHotel()
	for range 4 {
		(&Result{Values: map[int]map[string]eq.Value{0: nil, 1: nil}}).Release()
		res, err := SCCCoordinate(qs, in, Options{})
		if err != nil || res.Size() != 2 {
			t.Fatalf("after releasing nil maps: %v, %v", res, err)
		}
	}
}

// TestPreprocess holds the statistics of the flight-hotel set: four
// queries, seven extended edges collapsing to six, three components.
func TestPreprocess(t *testing.T) {
	qs, _ := flightHotel()
	st := Preprocess(qs)
	if st.Queries != 4 || st.ExtendedEdges != 7 || st.Edges != 6 || st.Components != 3 || !slices.Equal(st.TopoOrder, []int{2, 1, 0}) {
		t.Fatalf("Preprocess = %+v", st)
	}
}

// TestDeadAtomWithAConstant: an empty atom whose constant comes before
// its variable still names its query dead, and nothing coordinates.
func TestDeadAtomWithAConstant(t *testing.T) {
	qs := eq.MustParseSet(`
query a { post: R(B)  head: R(A)  body: T(v) }
query b { head: R(B)  body: E(K, v) }`)
	in := db.NewInstance()
	in.CreateRelation("T", "v").Insert("ok")
	in.CreateRelation("E", "k", "v")
	if res, err := SCCCoordinate(qs, in, Options{}); err != nil || res != nil {
		t.Fatalf("SCCCoordinate = %v, %v; want nothing", res, err)
	}
}

// TestGuptaNeedsEveryPostProvided: a strongly connected set in which one
// postcondition has no provider is not coordinating, whatever its
// bodies ground.
func TestGuptaNeedsEveryPostProvided(t *testing.T) {
	qs := eq.MustParseSet(`
query a { post: R(B), S(Z)  head: R(A) }
query b { post: R(A)  head: R(B) }`)
	in := db.NewInstance()
	if res, err := GuptaCoordinate(qs, in); res != nil || err != nil || in.QueriesIssued() != 0 {
		t.Fatalf("GuptaCoordinate = %v, %v after %d queries; want nothing, and no query", res, err, in.QueriesIssued())
	}
	// One query alone is strongly connected, and its body grounds: only
	// the missing provider of S(Z) makes the set not coordinating.
	one := eq.MustParseSet(`query a { post: S(Z)  head: R(A)  body: T(v) }`)
	in = db.NewInstance()
	in.CreateRelation("T", "v").Insert("1")
	if res, err := GuptaCoordinate(one, in); res != nil || err != nil {
		t.Fatalf("GuptaCoordinate(one query) = %v, %v; want nothing", res, err)
	}
}
