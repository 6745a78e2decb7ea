package coord

import (
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/unify"
	"entangled/internal/workload"
)

func itoa(i int) string { return strconv.Itoa(i) }

// requestCost reports what one SCCCoordinate over qs costs: allocations
// (testing.AllocsPerRun) and bytes (a runtime.MemStats.TotalAlloc
// delta), per request.
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestSCCWalkAllocationBudget holds the §4 walk to what it needs on the
// paper's worst case, the Figure-4 list, where the i-th component
// reaches i queries: one search scratch per request, not a
// substitution, a body and a reach row per component. When every
// component allocated its own, a request cost 0.54 MB at 50 queries,
// 1.82 MB at 100 and 6.71 MB at 200; with the database's answer a map
// per grounded component and the extended graph filed as structs under
// three maps, 0.21, 0.61 and 1.90 MB; it costs 0.16, 0.44 and 1.30 MB.
// What is left is the database's answer as one frame per grounded
// component, 32 bytes a variable, and each candidate's Set — both
// O(|R(q)|), hence quadratic on this list, and handed to the caller.
// At 8 queries, the request of the HTTP batch workload, a request is
// held to what it cost before batch requests became a bulk-loaded
// Incremental (18,488 B), plus 1%: a one-shot coordinator files no
// outcome, builds no key and copies a set only for a candidate.
func TestSCCWalkAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const rows = 1000
	store := db.NewInstance()
	workload.UserTable(store, rows)
	budget := map[int]float64{8: 18488 * 1.01, 50: 0.185e6, 100: 0.5e6, 200: 1.5e6}
	for _, n := range []int{8, 50, 100, 200} {
		qs := workload.ListQueries(n, rows)
		allocs, bytes := requestCost(t, qs, store, Options{})
		t.Logf("%3d queries: %8.0f B/request, %5.0f allocs/request", n, bytes, allocs)
		if bytes > budget[n] {
			t.Errorf("%d queries: %.0f B/request over the %.0f B budget", n, bytes, budget[n])
		}
		// A bounded number of allocations per component: graph
		// construction and renaming per query, then the binding, the
		// candidate set and what a collection emptied from the
		// database's pools.
		if max := float64(50 * n); allocs > max {
			t.Errorf("%d queries: %.0f allocs/request over the budget of %.0f", n, allocs, max)
		}
	}
}

// observedStore counts Domain calls and records, at call time, the
// query every SolveUnder asks: the body resolved under the substitution
// it was handed, before either can be reused.
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
	asked := renderCombined(s.ApplyAll(body))
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
		inc := NewIncremental(o, Options{})
		for i := n - 1; i >= 0; i-- {
			o.domainCalls = 0
			if _, _, err := inc.Add(qs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if res, err := inc.Result(); err != nil || res.Size() != n {
			t.Fatalf("res=%v err=%v", res, err)
		}
		if cands, err := inc.Candidates(); err != nil || len(cands) != n {
			t.Fatalf("%d candidates, err=%v", len(cands), err)
		}
		if _, err := inc.Result(); err != nil {
			t.Fatal(err)
		}
		check("a session event with Result, Candidates and Result again", o)
	}
}

// TestTraceShowsWhatTheDatabaseSaw pins on-demand rendering: a trace's
// Combined is rendered from an MGU recomputed after the fact (a session
// renders it events after the query was asked), and must be, string for
// string, the body the database was handed, resolved under the
// substitution it was handed, at the moment of the call.
func TestTraceShowsWhatTheDatabaseSaw(t *testing.T) {
	const rows = 40
	rng := rand.New(rand.NewSource(41))
	sets := []struct {
		name string
		qs   []eq.Query
	}{
		{"figure-4 list", workload.ListQueries(30, rows)},
		{"scale-free", workload.ScaleFreeQueries(40, 2, rows, rng)},
		{"pruned random-safe", workload.RandomSafeQueries(40, rows, 0.03, 0.8, rng)},
	}
	combinedOf := func(tr *Trace) (out []string, statuses map[string]int) {
		statuses = map[string]int{}
		for _, ev := range tr.Components {
			statuses[ev.Status]++
			if asked := ev.Status == "grounded" || ev.Status == "no tuple"; asked != (ev.Combined != "") {
				t.Fatalf("component %v is %q with combined query %q", ev.Members, ev.Status, ev.Combined)
			}
			if ev.Combined != "" {
				out = append(out, ev.Combined)
			}
		}
		return out, statuses
	}
	for _, set := range sets {
		name, qs := set.name, set.qs
		inst := newWorkloadInstance(rows)

		// Batch: the walk asks in processing order.
		o, tr := &observedStore{Store: inst}, &Trace{}
		if _, err := SCCCoordinate(qs, o, Options{Trace: tr}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		batch, statuses := combinedOf(tr)
		if len(batch) == 0 || !reflect.DeepEqual(batch, o.asked) {
			t.Fatalf("%s: batch trace shows %d queries\n%q\nthe database saw %d\n%q", name, len(batch), batch, len(o.asked), o.asked)
		}
		if name == "pruned random-safe" && (len(tr.Pruned) == 0 || statuses["pruned"] == 0) {
			t.Fatalf("%s: nothing pruned (%v)", name, statuses)
		}

		// A quiesced session: arrivals one at a time, a departure and
		// its return, so the final trace mixes outcomes solved at many
		// different events, most of them spliced since. Each query it
		// shows must be one the database saw.
		so := &observedStore{Store: inst}
		inc := NewIncremental(so, Options{})
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
		session, _ := combinedOf(inc.Trace(nil))
		if len(session) == 0 {
			t.Fatalf("%s: the session's trace shows no query", name)
		}
		for _, c := range session {
			if !saw[c] {
				t.Fatalf("%s: the session's trace shows a query the database never saw:\n%s", name, c)
			}
		}
		if again, _ := combinedOf(inc.Trace(nil)); !reflect.DeepEqual(again, session) {
			t.Fatalf("%s: rendering the trace twice gives two answers", name)
		}
	}
}
