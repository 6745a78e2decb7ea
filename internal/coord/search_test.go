package coord

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode"

	"entangled/internal/db"
	"entangled/internal/db/dbtest"
	"entangled/internal/eq"
	"entangled/internal/unify"
	"entangled/internal/workload"
)

func itoa(i int) string { return strconv.Itoa(i) }

// requestCost reports what one SCCCoordinate over qs costs: allocations
// (testing.AllocsPerRun) and bytes (a runtime.MemStats.TotalAlloc
// delta), per request — the least of three rounds, so that a round
// during which a collection emptied the database's pools does not set
// the number.
func requestCost(t *testing.T, qs []eq.Query, store db.Store, opts Options) (allocs, bytes float64) {
	t.Helper()
	run := func() {
		res, err := SCCCoordinate(qs, store, opts)
		if err != nil || res.Size() != len(qs) {
			t.Fatalf("res=%v err=%v", res, err)
		}
	}
	allocs = testing.AllocsPerRun(5, run)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 5
	bytes = math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return allocs, bytes
}

// TestSCCWalkAllocationBudget holds the §4 walk to what it needs on the
// paper's worst case, the Figure-4 list, where the i-th component
// reaches i queries: one search scratch per request, not a
// substitution, a body and a reach row per component. When every
// component allocated its own, a request cost 0.54 MB at 50 queries,
// 1.82 MB at 100 and 6.71 MB at 200; with the database's answer a map
// per grounded component and the extended graph filed as structs under
// three maps, 0.21, 0.61 and 1.90 MB; with every query renamed and
// the substitution interning names, 18,370 B at 8 queries (the request
// of the HTTP batch workload), 165,344, 442,878 and 1,313,736 B.
// Variables are numbers now, and every budget is 1.01x what a request
// cost once they were: 13,936, 112,808, 289,576 and 841,005 B, each
// requestCost's least of three rounds of five requests (the earlier
// figures are one round each). What is left is the
// database's answer as one frame per grounded component, 16 bytes a
// variable, and each candidate's assembly order — both O(|R(q)|),
// hence quadratic on this list.
func TestSCCWalkAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const rows = 1000
	store := db.NewInstance()
	workload.UserTable(store, rows)
	budget := map[int]float64{8: 13936 * 1.01, 50: 112808 * 1.01, 100: 289576 * 1.01, 200: 841005 * 1.01}
	for _, n := range []int{8, 50, 100, 200} {
		qs := workload.ListQueries(n, rows)
		allocs, bytes := requestCost(t, qs, store, Options{})
		t.Logf("%3d queries: %8.0f B/request, %5.0f allocs/request", n, bytes, allocs)
		if bytes > budget[n] {
			t.Errorf("%d queries: %.0f B/request over the %.0f B budget", n, bytes, budget[n])
		}
		// A bounded number of allocations per component: graph
		// construction per query, then the binding, the candidate set
		// and what a collection emptied from the database's pools.
		if max := float64(50 * n); allocs > max {
			t.Errorf("%d queries: %.0f allocs/request over the budget of %.0f", n, allocs, max)
		}
	}
}

// observedStore counts Domain calls and records, at call time, the
// query every SolveUnder asks: the body resolved under the substitution
// it was handed, before either can be reused, its variables — the
// substitution's classes — named _0, _1, ... by first occurrence.
type observedStore struct {
	db.Store
	mu          sync.Mutex
	domainCalls int
	asked       []string
}

func (o *observedStore) Domain() []eq.Value {
	o.mu.Lock()
	o.domainCalls++
	o.mu.Unlock()
	return o.Store.Domain()
}

func (o *observedStore) SolveUnder(body []eq.Atom, s *unify.Subst) (db.Binding, bool, error) {
	asked := eq.JoinAtoms(dbtest.Resolve(body, s))
	o.mu.Lock()
	o.asked = append(o.asked, asked)
	o.mu.Unlock()
	return o.Store.SolveUnder(body, s)
}

// freeChain is a chain of n queries, query i waiting on query i+1; when
// free, every head and postcondition carries a variable no body binds,
// so every candidate's witness needs the fallback value.
func freeChain(n int, free bool) ([]eq.Query, *db.Instance) {
	inst := db.NewInstance()
	rel := inst.CreateRelation("T", "val")
	for i := 0; i < 5; i++ {
		rel.Insert(eq.Value("v" + itoa(i)))
	}
	atom := func(user int, v, f string) eq.Atom {
		if free {
			return eq.NewAtom("R", eq.C(eq.Value("U"+itoa(user))), eq.V(v), eq.V(f))
		}
		return eq.NewAtom("R", eq.C(eq.Value("U"+itoa(user))), eq.V(v))
	}
	qs := make([]eq.Query, n)
	for i := range qs {
		qs[i] = eq.Query{ID: "u" + itoa(i), Head: []eq.Atom{atom(i, "x", "f")}, Body: []eq.Atom{eq.NewAtom("T", eq.V("x"))}}
		if i+1 < n {
			qs[i].Post = []eq.Atom{atom(i+1, "y", "g")}
		}
	}
	return qs, inst
}

// The fallback value costs a scan of the whole database, so a run reads
// it at most once — not once per candidate — and a run whose witnesses
// leave no variable free never reads it at all.
func TestFallbackReadsDomainAtMostOnce(t *testing.T) {
	const n = 4
	for _, free := range []bool{false, true} {
		want := 0
		if free {
			want = 1
		}
		qs, inst := freeChain(n, free)
		check := func(what string, o *observedStore) {
			t.Helper()
			if o.domainCalls != want {
				t.Errorf("free=%v: %s called Domain %d times, want %d", free, what, o.domainCalls, want)
			}
		}

		o := &observedStore{Store: inst}
		res, err := SCCCoordinate(qs, o, Options{})
		if err != nil || res.Size() != n {
			t.Fatalf("res=%v err=%v", res, err)
		}
		if err := Verify(qs, res.Set, res.Values, inst); err != nil {
			t.Fatal(err)
		}
		if free && res.Values[0]["f"] != inst.Domain()[0] {
			t.Fatalf("free variable f = %q, want the least domain value", res.Values[0]["f"])
		}
		check("SCCCoordinate", o)

		o = &observedStore{Store: inst}
		cands, err := AllCandidates(qs, o, Options{})
		if err != nil || len(cands) != n {
			t.Fatalf("%d candidates, err=%v", len(cands), err)
		}
		for _, c := range cands {
			if err := Verify(qs, c.Set, c.Values, inst); err != nil {
				t.Fatal(err)
			}
		}
		check("AllCandidates", o)

		// A session event: the pass, then everything read off it.
		o = &observedStore{Store: inst}
		inc := NewIncremental(o)
		for i := n - 1; i >= 0; i-- {
			o.domainCalls = 0
			if _, _, err := inc.Add(qs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if res, err := inc.Result(); err != nil || res.Size() != n {
			t.Fatalf("res=%v err=%v", res, err)
		}
		if cands, err := inc.Candidates(); err != nil || len(cands) != 1 { // a session's pass grounds the winner alone
			t.Fatalf("%d candidates, err=%v", len(cands), err)
		}
		if _, err := inc.Result(); err != nil {
			t.Fatal(err)
		}
		check("a session event with Result, Candidates and Result again", o)
	}
}

// unnamed renames the variables of a rendered conjunctive query _0, _1,
// ... by first occurrence, the way observedStore names the classes the
// database was handed. It reads the rendering eq.Atom.String writes,
// argument by argument: a quoted constant is copied whole, and an
// unquoted argument is a variable when it starts with a lower-case
// letter; relation names are left as they are.
func unnamed(combined string) string {
	names := map[string]string{}
	var sb strings.Builder
	for rest := combined; rest != ""; {
		open := strings.IndexByte(rest, '(') + 1
		sb.WriteString(rest[:open]) // ", " and the relation
		rest = rest[open:]
		for rest[0] != ')' {
			n := strings.IndexAny(rest, ",)")
			if rest[0] == '\'' {
				n = 2 + strings.IndexByte(rest[1:], '\'')
			}
			arg := rest[:n]
			if unicode.IsLower(rune(arg[0])) {
				if _, ok := names[arg]; !ok {
					names[arg] = "_" + itoa(len(names))
				}
				arg = names[arg]
			}
			sb.WriteString(arg)
			rest = strings.TrimPrefix(rest[n:], ", ")
			if rest[0] != ')' {
				sb.WriteString(", ")
			}
		}
		sb.WriteByte(')')
		rest = rest[1:]
	}
	return sb.String()
}

// sorted returns a sorted copy of xs.
func sorted(xs []string) []string {
	return slices.Sorted(slices.Values(xs))
}

// TestTraceShowsWhatTheDatabaseSaw pins on-demand rendering: a trace's
// Combined is rendered from an MGU recomputed after the fact (a session
// renders it events after the query was asked), and must be, string for
// string, the body the database was handed, resolved under the
// substitution it was handed, at the moment of the call. The database
// sees classes, not names, so that comparison renames both sides'
// variables _0, _1, ... by first occurrence (unnamed). The names —
// each class shown as its representative, q<n>.<name> — are held byte
// for byte to testdata/trace_combined.txt, written when variables were
// still renamed strings: the last set there unifies one class across
// four queries and shows it in every body. The file's batch rows are
// the rank walk's; its family rows, AllCandidates' walk of every
// component, are the batch rows it held before the rank walk, line for
// line.
func TestTraceShowsWhatTheDatabaseSaw(t *testing.T) {
	const rows = 40
	rng := rand.New(rand.NewSource(41))
	sets := []struct {
		name string
		qs   []eq.Query
	}{
		{"figure-4 list", workload.ListQueries(30, rows)},
		{"scale-free", workload.ScaleFreeQueries(40, 2, rows, rng)},
		{"pruned random-safe", stranded(workload.RandomSafeQueries(40, rows, 0.03, 0.8, rng), newWorkloadInstance(rows))},
		{"one class across three queries", eq.MustParseSet(`
query a { post: R(UB, x) head: R(UA, x) body: T(x), S(x, y) }
query b { post: R(UC, u) head: R(UB, u) body: T(u) }
query c { post: R(UA, w) head: R(UC, w) body: S(w, z), T(z) }
query d { post: R(UA, k) head: R(UD, k) body: S(k, k) }`)},
	}
	var rendered strings.Builder
	combinedOf := func(set, run string, tr *Trace) (out []string, statuses map[string]int) {
		statuses = map[string]int{}
		for _, ev := range tr.Components {
			statuses[ev.Status]++
			if asked := ev.Status == "grounded" || ev.Status == "no tuple"; asked != (ev.Combined != "") {
				t.Fatalf("component %v is %q with combined query %q", ev.Members, ev.Status, ev.Combined)
			}
			if ev.Combined != "" {
				fmt.Fprintf(&rendered, "%s\t%s\t%s\n", set, run, ev.Combined)
				out = append(out, unnamed(ev.Combined))
			}
		}
		return out, statuses
	}
	for _, set := range sets {
		name, qs := set.name, set.qs
		inst := newWorkloadInstance(rows)
		if name == "one class across three queries" {
			inst = db.NewInstance()
			rel := inst.CreateRelation("T", "v")
			for _, v := range []eq.Value{"1", "2", "3"} {
				rel.Insert(v)
			}
			s := inst.CreateRelation("S", "v", "w")
			s.Insert("1", "2")
			s.Insert("3", "3")
		}

		// Batch: the trace lists in reverse topological order what the
		// rank walk asked largest set first; the family walk asks in
		// the order its trace lists.
		o, tr := &observedStore{Store: inst}, &Trace{}
		if _, err := SCCCoordinate(qs, o, Options{Trace: tr}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		batch, statuses := combinedOf(name, "batch", tr)
		if len(batch) == 0 || !reflect.DeepEqual(sorted(batch), sorted(o.asked)) {
			t.Fatalf("%s: batch trace shows %d queries\n%q\nthe database saw %d\n%q", name, len(batch), batch, len(o.asked), o.asked)
		}
		if name == "pruned random-safe" && (len(tr.Pruned) == 0 || statuses["pruned"] == 0) {
			t.Fatalf("%s: nothing pruned (%v)", name, statuses)
		}
		o, tr = &observedStore{Store: inst}, &Trace{}
		if _, err := AllCandidates(qs, o, Options{Trace: tr}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if family, _ := combinedOf(name, "family", tr); !reflect.DeepEqual(family, o.asked) {
			t.Fatalf("%s: family trace shows %d queries\n%q\nthe database saw %d\n%q", name, len(family), family, len(o.asked), o.asked)
		}

		// A quiesced session: arrivals one at a time, a departure and
		// its return, so the final trace mixes outcomes solved at many
		// different events, most of them spliced since. Each query it
		// shows must be one the database saw.
		so := &observedStore{Store: inst}
		inc := NewIncremental(so)
		slots := make([]int, len(qs))
		for i, q := range qs {
			slot, _, err := inc.Add(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			slots[i] = slot
		}
		if _, err := inc.Remove(slots[len(qs)/2]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := inc.Add(qs[len(qs)/2]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		saw := map[string]bool{}
		for _, a := range so.asked {
			saw[a] = true
		}
		session, _ := combinedOf(name, "session", inc.Trace(nil))
		if len(session) == 0 {
			t.Fatalf("%s: the session's trace shows no query", name)
		}
		for _, c := range session {
			if !saw[c] {
				t.Fatalf("%s: the session's trace shows a query the database never saw:\n%s", name, c)
			}
		}
		if !reflect.DeepEqual(inc.Trace(nil), inc.Trace(nil)) {
			t.Fatalf("%s: rendering the trace twice gives two answers", name)
		}
	}
	want, err := os.ReadFile("testdata/trace_combined.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := rendered.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("rendered query %d:\n got %q\nwant %q (testdata/trace_combined.txt)", i+1, g[i], w[i])
			}
		}
		t.Fatalf("%d rendered queries, testdata/trace_combined.txt has %d", len(g)-1, len(w)-1)
	}
}

// TestRequestCostIsSearches states the paper's cost unit as an equation
// and checks it per request: a run's DBQueries is one grounding query
// per component its trace shows as "grounded" or "no tuple", and
// nothing else — no query is probed on its own. The store's own counter
// must agree, so nothing a run asks goes unbilled; AllCandidates, which
// returns no count, is held to the store's. The Gupta baseline asks at
// most its one combined query.
func TestRequestCostIsSearches(t *testing.T) {
	const rows = 40
	rng := rand.New(rand.NewSource(47))
	sets := []struct {
		name string
		qs   []eq.Query
	}{
		{"figure-4 list", workload.ListQueries(30, rows)},
		{"scale-free", workload.ScaleFreeQueries(40, 2, rows, rng)},
		{"pruned random-safe", workload.RandomSafeQueries(40, rows, 0.03, 0.8, rng)},
	}
	want := func(tr *Trace) int64 {
		n := int64(0)
		for _, ev := range tr.Components {
			if ev.Status == "grounded" || ev.Status == "no tuple" {
				n++
			}
		}
		return n
	}
	for _, set := range sets {
		name := set.name
		inst := newWorkloadInstance(rows)
		tr := &Trace{}
		res, err := SCCCoordinate(set.qs, inst, Options{Trace: tr})
		if err != nil || res == nil {
			t.Fatalf("%s: res=%v err=%v", name, res, err)
		}
		if w := want(tr); res.DBQueries != w || inst.QueriesIssued() != w {
			t.Fatalf("%s: SCCCoordinate billed %d, the store counted %d, the trace shows %d", name, res.DBQueries, inst.QueriesIssued(), w)
		}
		inst, tr = newWorkloadInstance(rows), &Trace{}
		if _, err := AllCandidates(set.qs, inst, Options{Trace: tr}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w := want(tr); inst.QueriesIssued() != w {
			t.Fatalf("%s: AllCandidates asked %d, the trace shows %d", name, inst.QueriesIssued(), w)
		}
	}

	gupta := []struct {
		name  string
		qs    []eq.Query
		asked int64
	}{
		{"not unique", workload.ListQueries(4, rows), 0},
		{"unique", eq.MustParseSet(`
query p { post: R(UQ, a) head: R(UP, a) body: T(a) }
query q { post: R(UP, b) head: R(UQ, b) body: T(b) }`), 1},
		{"no provider", eq.MustParseSet(`
query p { post: R(UQ, a), R(UZ, a2) head: R(UP, a) body: T(a) }
query q { post: R(UP, b) head: R(UQ, b) body: T(b) }`), 0},
		{"unification clash", eq.MustParseSet(`
query p { post: R(UQ, A, B) head: R(UP, u, v) body: T(u) }
query q { post: R(UP, c, d) head: R(UQ, b, b) body: T(b) }`), 0},
		{"no tuple", eq.MustParseSet(`
query p { post: R(UQ, a) head: R(UP, a) body: T(a) }
query q { post: R(UP, b) head: R(UQ, b) body: T(b), T(Nobody) }`), 1},
	}
	for _, g := range gupta {
		inst := db.NewInstance()
		inst.CreateRelation("T", "v").Insert("1")
		res, err := GuptaCoordinate(g.qs, inst)
		if grounds := g.name == "unique"; inst.QueriesIssued() != g.asked || (res != nil) != grounds || grounds && res.DBQueries != 1 {
			t.Fatalf("Gupta, %s: asked %d (res=%v, err=%v), want %d", g.name, inst.QueriesIssued(), res, err, g.asked)
		}
	}
}

// BruteForceMax bills what it asked: on small random-safe sets, where
// it tries subsets largest first and each may ask the store, a run that
// finds a set reports exactly the store's own count as DBQueries (1 to 8
// each here).
func TestBruteForceBillsWhatTheStoreCounted(t *testing.T) {
	const rows = 40
	rng := rand.New(rand.NewSource(54))
	found, billed := 0, int64(0)
	for trial := 0; trial < 40; trial++ {
		qs := workload.RandomSafeQueries(3+rng.Intn(8), rows, 0.3, 0.85, rng)
		inst := newWorkloadInstance(rows)
		res, err := BruteForceMax(qs, inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res == nil {
			continue
		}
		found, billed = found+1, billed+res.DBQueries
		if res.DBQueries != inst.QueriesIssued() {
			t.Fatalf("trial %d (%d queries): BruteForceMax billed %d, the store counted %d", trial, len(qs), res.DBQueries, inst.QueriesIssued())
		}
	}
	if found < 20 || billed < 2*int64(found) {
		t.Fatalf("%d of 40 sets coordinated, billing %d queries: the generator under-draws", found, billed)
	}
	t.Logf("%d of 40 sets coordinated, billing %d queries", found, billed)
}

// TestFallbackNeedsADomain: a free variable takes the domain's value when
// the database holds exactly one, and an empty database is an error from
// every reader of the witness, not a panic.
func TestFallbackNeedsADomain(t *testing.T) {
	qs := []eq.Query{{ID: "q", Head: []eq.Atom{eq.NewAtom("R", eq.C("U0"), eq.V("f"))}}}
	one := db.NewInstance()
	one.CreateRelation("T", "val").Insert("v")
	if res, err := SCCCoordinate(qs, one, Options{}); err != nil || res.Size() != 1 || res.Values[0]["f"] != "v" {
		t.Fatalf("one-value domain: %v, %v", res, err)
	}
	empty := func(err error) bool { return err != nil && strings.Contains(err.Error(), "empty database domain") }
	if _, err := SCCCoordinate(qs, db.NewInstance(), Options{}); !empty(err) {
		t.Fatalf("SCCCoordinate on an empty database: %v", err)
	}
	if _, err := AllCandidates(qs, db.NewInstance(), Options{}); !empty(err) {
		t.Fatalf("AllCandidates on an empty database: %v", err)
	}
	if _, err := BruteForceMax(qs, db.NewInstance()); !empty(err) {
		t.Fatalf("BruteForceMax on an empty database: %v", err)
	}
	inc := NewIncremental(db.NewInstance())
	if _, _, err := inc.Add(qs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Result(); !empty(err) {
		t.Fatalf("Result on an empty database: %v", err)
	}
	if _, err := inc.Candidates(); !empty(err) {
		t.Fatalf("Candidates on an empty database: %v", err)
	}
}
