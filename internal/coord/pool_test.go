package coord

import (
	"errors"
	"maps"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

// TestPooledWalkAllocationBar holds a steady-state SCCCoordinate, on a
// coordinator the pool refills, to what its answer needs: two
// allocations per query of the result (its value map and, at the first
// value, the map's one group) and a constant for the Result, its set,
// the outer map and the meter. The database's frames cost nothing: each
// grounded component's binding fills a frame an earlier request handed
// back. The constant is the same at 100 and 400 queries, on the
// Figure-4 list and on a scale-free set; the collector is off while
// counting, so that it cannot empty the pools. The list of 100 took
// 792 allocations with a coordinator built per request, and 317 with a
// frame allocated per grounded component; it takes 217.
func TestPooledWalkAllocationBar(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const rows, constant = 1000, 24
	store := db.NewInstance()
	workload.UserTable(store, rows)
	for _, n := range []int{100, 400} {
		for _, c := range []struct {
			name string
			qs   []eq.Query
		}{
			{"Figure-4 list", workload.ListQueries(n, rows)},
			{"scale-free", workload.ScaleFreeQueries(n, 2, rows, rand.New(rand.NewSource(1)))},
		} {
			var res *Result
			run := func() {
				var err error
				if res, err = SCCCoordinate(c.qs, store, Options{}); err != nil {
					t.Fatal(err)
				}
			}
			run() // the warm-up: the pool's coordinator, the database's plans
			allocs := func() float64 {
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				return testing.AllocsPerRun(5, run)
			}()
			bar := float64(2*res.Size() + constant)
			t.Logf("%s, %d queries: %.0f allocations, bar %.0f (team of %d)", c.name, n, allocs, bar, res.Size())
			if allocs > bar {
				t.Errorf("%s, %d queries: %.0f allocations over the bar of %.0f", c.name, n, allocs, bar)
			}
		}
	}
}

// step is one request of TestPooledWalkReuseIsInvisible's sequence.
type step struct {
	name  string
	qs    []eq.Query
	store db.Store
	opts  func() Options // a fresh Trace for every run
}

// outcome is everything a step's two calls return.
type outcome struct {
	res     *Result
	resErr  string
	trace   *Trace
	cands   []CandidateSet
	candErr string
	ctrace  *Trace
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// run makes the step's two calls through coordinate and candidates:
// the package's entry points, or the reference walk's.
func (s step) run(coordinate func([]eq.Query, db.Store, Options) (*Result, error),
	candidates func([]eq.Query, db.Store, Options) ([]CandidateSet, error)) outcome {
	var o outcome
	opts := s.opts()
	res, err := coordinate(s.qs, s.store, opts)
	o.res, o.resErr, o.trace = res, errString(err), opts.Trace
	opts = s.opts()
	cands, err := candidates(s.qs, s.store, opts)
	o.cands, o.candErr, o.ctrace = cands, errString(err), opts.Trace
	return o
}

// TestPooledWalkReuseIsInvisible runs one sequence of requests through
// SCCCoordinate and AllCandidates, three times over: a large set, a
// small one, an unsafe one, a traced one with a selector, then the
// large set again. Every request lands on a coordinator an earlier,
// different one filled, and each must return — result, DBQueries,
// trace, candidates, error text — exactly what its first run did, and
// the first run what the reference walk returns.
func TestPooledWalkReuseIsInvisible(t *testing.T) {
	const rows = 200
	store := newWorkloadInstance(rows)
	rng := rand.New(rand.NewSource(7))
	large := workload.ScaleFreeQueries(120, 2, rows, rng)
	plain := func() Options { return Options{} }
	unsafe, unsafeStore := unsafeSet()
	steps := []step{
		{"large", large, store, plain},
		{"small", workload.ListQueries(8, rows), store, plain},
		{"unsafe", unsafe, unsafeStore, plain},
		{"traced", workload.RandomSafeQueries(60, rows, 0.03, 0.8, rng), store,
			func() Options { return Options{Trace: &Trace{}} }},
		{"large again", large, store, plain},
	}
	first := map[string]outcome{}
	for round := range 3 {
		for _, s := range steps {
			got := s.run(SCCCoordinate, AllCandidates)
			if got.resErr == "" && got.res == nil {
				t.Fatalf("round %d, %s: no team", round, s.name)
			}
			key := s.name
			if key == "large again" {
				key = "large"
			}
			want, seen := first[key]
			if !seen {
				first[key], want = got, s.run(oracleCoordinate, oracleCandidates)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, %s:\n%+v\nwant\n%+v", round, s.name, got, want)
			}
		}
	}
	if _, err := SCCCoordinate(unsafe, unsafeStore, Options{}); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("the unsafe step returned %v, not ErrUnsafe", err)
	}
}

// unsafeSet is Example 1's band with two queries answering for Chris:
// the band's postcondition unifies with both heads.
func unsafeSet() ([]eq.Query, db.Store) {
	return eq.MustParseSet(`
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
}`), zurichInstance()
}

// TestPooledWalkConcurrent has eight goroutines share the pool, each
// coordinating a set of its own size over the same store, and holds
// every answer, DBQueries included, to the reference walk's.
func TestPooledWalkConcurrent(t *testing.T) {
	const rows, workers, rounds = 100, 8, 20
	store := newWorkloadInstance(rows)
	sets := make([][]eq.Query, workers)
	want := make([]*Result, workers)
	for w := range sets {
		sets[w] = workload.ListQueries(4+6*w, rows)
		var err error
		if want[w], err = oracleCoordinate(sets[w], store, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				res, err := SCCCoordinate(sets[w], store, Options{})
				if err == nil && !reflect.DeepEqual(res, want[w]) {
					err = errors.New("worker " + strconv.Itoa(w) + ": a result differs from the reference walk's")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// held is one worker's round-1 answers, as returned and as deep copies
// taken on return.
type held struct {
	res, resCopy     *Result
	cands, candsCopy []CandidateSet
}

// copyValues returns a copy of a witness that shares no map with it.
func copyValues(v map[int]map[string]eq.Value) map[int]map[string]eq.Value {
	out := make(map[int]map[string]eq.Value, len(v))
	for q, m := range v {
		out[q] = maps.Clone(m)
	}
	return out
}

// TestHeldResultsOutliveReusedFrames has eight goroutines each keep
// their first SCCCoordinate and AllCandidates answers, then run the
// same sets again, so that every database frame the first round handed
// back is filled anew. The kept answers must still equal the copies
// taken when they were returned, and the reference walk's: a Result
// reads its values out of a frame before the frame goes back.
func TestHeldResultsOutliveReusedFrames(t *testing.T) {
	const rows, workers, rounds = 100, 8, 5
	store := newWorkloadInstance(rows)
	sets := make([][]eq.Query, workers)
	for w := range sets {
		sets[w] = workload.ListQueries(4+6*w, rows)
	}
	kept := make([]held, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range rounds {
				res, err := SCCCoordinate(sets[w], store, Options{})
				if err != nil {
					errs <- err
					return
				}
				cands, err := AllCandidates(sets[w], store, Options{})
				if err != nil {
					errs <- err
					return
				}
				if round == 0 {
					h := held{res: res, cands: cands}
					h.resCopy = &Result{Set: slices.Clone(res.Set), Values: copyValues(res.Values), DBQueries: res.DBQueries}
					for _, c := range cands {
						h.candsCopy = append(h.candsCopy, CandidateSet{Set: slices.Clone(c.Set), Values: copyValues(c.Values)})
					}
					kept[w] = h
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w, h := range kept {
		wantRes, err := oracleCoordinate(sets[w], store, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantCands, err := oracleCandidates(sets[w], store, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(h.res, h.resCopy) || !reflect.DeepEqual(h.res, wantRes) {
			t.Errorf("worker %d: the kept result changed after its frames were reused:\n%+v\ncopy\n%+v\nreference\n%+v", w, h.res, h.resCopy, wantRes)
		}
		if !reflect.DeepEqual(h.cands, h.candsCopy) || !reflect.DeepEqual(h.cands, wantCands) {
			t.Errorf("worker %d: the kept candidates changed after their frames were reused", w)
		}
	}
}

// renamedList is the Figure-4 list of n queries over users named
// <prefix>0 ... <prefix>n-1.
func renamedList(n, rows int, prefix string) []eq.Query {
	qs := workload.ListQueries(n, rows)
	for i := range qs {
		qs[i].Head = []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(prefix+strconv.Itoa(i))), eq.V("x"))}
		if i+1 < n {
			qs[i].Post = []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(prefix+strconv.Itoa(i+1))), eq.V("y"))}
		}
	}
	return qs
}

// TestReleasedCoordinatorPinsNoRequest fills a pooled coordinator with
// a traced request, releases it and looks at what it still holds: no
// query, atom, store, option, fallback value, binding, outcome, body
// atom or unifier variable.
func TestReleasedCoordinatorPinsNoRequest(t *testing.T) {
	const rows, n = 100, 40
	store := newWorkloadInstance(rows)
	for round := range 6 {
		qs := renamedList(n, rows, "P"+strconv.Itoa(round)+"-")
		inc := loads.Get().(*Incremental)
		if err := inc.load(qs, store, Options{Trace: &Trace{}}, false); err != nil {
			t.Fatal(err)
		}
		if res, err := inc.Result(); err != nil || res.Size() != n {
			t.Fatalf("round %d: %v, %v", round, res, err)
		}
		inc.release()

		if inc.store != nil || inc.queries != nil || !reflect.DeepEqual(inc.opts, Options{}) || inc.fb != (fallback{}) {
			t.Fatalf("round %d: the released coordinator keeps the request's store, queries, options or fallback", round)
		}
		for _, refs := range [][]atomRef{inc.g.heads.refs, inc.g.posts.refs} {
			for _, ref := range refs[:cap(refs)] {
				if !reflect.DeepEqual(ref, atomRef{}) {
					t.Fatalf("round %d: a bucketed atom stays: %+v", round, ref)
				}
			}
		}
		for _, c := range inc.cands[:cap(inc.cands)] {
			if c.binding.Len() != 0 {
				t.Fatalf("round %d: a candidate's binding stays", round)
			}
		}
		for _, e := range inc.events[:cap(inc.events)] {
			if e.out != nil {
				t.Fatalf("round %d: a traced outcome stays", round)
			}
		}
		for _, a := range inc.scr.sr.body[:cap(inc.scr.sr.body)] {
			if a.Rel != "" || a.Args != nil {
				t.Fatalf("round %d: a combined body atom stays", round)
			}
		}
		if s := inc.scr.sr.subst; s != nil && s.Len() != 0 {
			t.Fatalf("round %d: the unifier keeps %d variables", round, s.Len())
		}
	}
}

// TestRefilledGraphKeepsTwoFillsOfKeys refills one graph with lists
// naming other users each time: the buckets' constant keys stay within
// the last two fills', and the edges are those of a graph built fresh.
func TestRefilledGraphKeepsTwoFillsOfKeys(t *testing.T) {
	const rows, n = 100, 40
	g := NewIncrementalGraph()
	for round := range 6 {
		qs := renamedList(n-round, rows, "P"+strconv.Itoa(round)+"-")
		g.fill(qs)
		for _, b := range []*atomBuckets{&g.heads, &g.posts} {
			if keys := len(b.rels["R"].byConst); keys > 2*n {
				t.Fatalf("round %d: %d constant keys, more than two fills' %d", round, keys, 2*n)
			}
		}
		if got, want := g.Edges(), ExtendedGraph(qs); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: refilled edges\n%v\nfresh\n%v", round, got, want)
		}
	}
}

// TestUnreleasedResultKeepsItsValues keeps one SCCCoordinate answer and
// releases each of the 100 after it, so their value maps go back to the
// pool and render the next run's witness. Every released run must equal
// the reference walk before its release — a refilled map carries no key
// of the query it served before (a list's last query has no y) — and
// read nil Values after it; the kept answer, never released, must keep
// its values. Release on nil, and a second time, does nothing.
func TestUnreleasedResultKeepsItsValues(t *testing.T) {
	const rows = 100
	store := newWorkloadInstance(rows)
	kept, err := SCCCoordinate(workload.ListQueries(40, rows), store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keptCopy := copyValues(kept.Values)
	for i := range 100 {
		qs := workload.ListQueries(2+i%37, rows)
		res, err := SCCCoordinate(qs, store, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleCoordinate(qs, store, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("run %d: %+v, reference %+v", i, res, want)
		}
		res.Release()
		res.Release()
		if res.Values != nil || !reflect.DeepEqual(res.Set, want.Set) || res.DBQueries != want.DBQueries {
			t.Fatalf("run %d: released result %+v, want only its values dropped", i, res)
		}
	}
	if !reflect.DeepEqual(kept.Values, keptCopy) {
		t.Fatal("a result never released changed once later results released their maps")
	}
	var none *Result
	none.Release()
}
