package system

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"entangled/internal/coord"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

// ids renders an outcome's coordinated queries for comparison.
func ids(out *Outcome) []string {
	var s []string
	for _, q := range out.Coordinated {
		s = append(s, q.ID)
	}
	return s
}

func TestUnsafeArrivalIsRefusedNotKept(t *testing.T) {
	c := New(newInstance())
	// Two pending providers of R(A, _) (each waits on a partner that
	// never comes), then a consumer whose postcondition would unify with
	// both heads.
	qs := eq.MustParseSet(`
query p1 { post: R(Z1, v) head: R(A, x) body: T(x, 'c1') }
query p2 { post: R(Z2, v) head: R(A, x) body: T(x, 'c2') }
query consumer { post: R(A, y) head: R(C, x) body: T(x, 'c3') }
query z1 { head: R(Z1, x) body: T(x, 'c4') }
query solo { head: R(S, x) body: T(x, 'c5') }`)
	for _, q := range qs[:2] {
		if out, err := c.Submit(q); err != nil || len(out.Coordinated) != 0 {
			t.Fatalf("%s should wait: %+v %v", q.ID, out, err)
		}
	}
	if _, err := c.Submit(qs[2]); !errors.Is(err, coord.ErrUnsafeArrival) {
		t.Fatalf("consumer: err = %v, want ErrUnsafeArrival", err)
	}
	if n := c.PendingCount(); n != 2 {
		t.Fatalf("refused arrival must not be pending: PendingCount = %d, want 2", n)
	}
	// An unrelated arrival coordinates alone; so does one into the
	// refused query's component — p1's partner, completing {p1, z1}.
	out, err := c.Submit(qs[4])
	if err != nil || len(out.Coordinated) != 1 {
		t.Fatalf("solo: %+v %v", out, err)
	}
	out, err = c.Submit(qs[3])
	if err != nil {
		t.Fatalf("z1 joins the component the refused arrival named: %v", err)
	}
	if got := ids(out); !slices.Equal(got, []string{"p1", "z1"}) {
		t.Fatalf("z1 completes {p1, z1}: got %v", got)
	}
	if out.Pending != 1 || c.PendingCount() != 1 {
		t.Fatalf("only p2 waits: %d / %d", out.Pending, c.PendingCount())
	}
}

// The penultimate arrival of a Figure-4 chain submitted head first
// joins a component of n-1 parked queries. Its cost must not grow with
// n, and is nothing: the newcomer's provider has not arrived, so the
// provider cascade prunes it with everything that reaches it — graph
// work, no database query.
func TestSubmitCostIndependentOfComponentSize(t *testing.T) {
	cost := func(n int) int64 {
		inst := newInstance()
		c := New(inst)
		qs := workload.ListQueries(n, 20)
		for _, q := range qs[:n-2] {
			if _, err := c.Submit(q); err != nil {
				t.Fatal(err)
			}
		}
		before := inst.QueriesIssued()
		out, err := c.Submit(qs[n-2])
		if err != nil || len(out.Coordinated) != 0 || out.Pending != n-1 {
			t.Fatalf("n=%d: penultimate query should wait: %+v %v", n, out, err)
		}
		return inst.QueriesIssued() - before
	}
	small, large := cost(8), cost(64)
	if small != 0 || large != 0 {
		t.Fatalf("database queries of the penultimate Submit: %d at n=8, %d at n=64; want 0", small, large)
	}
}

// A store write makes two disjoint candidates, {a2, a} and {b}, that the
// session has not seen. A Submit into their component retires exactly
// the team the session reports — the newcomer's own, not the larger
// stale one — and Flush, which re-reads the store, retires the other
// two, largest first, one outcome each.
func TestSubmitRetiresItsTeamFlushTheRest(t *testing.T) {
	inst := newInstance()
	c := New(inst)
	// hub never grounds; its postconditions tie everyone into one
	// component.
	qs := eq.MustParseSet(`
query hub { post: R(A2, u), R(B, v), R(Z, w) head: R(H, x) body: T(x, 'never') }
query a2 { post: R(A, y) head: R(A2, x) body: T(x, 'c2') }
query a { head: R(A, x) body: T(x, 'late1') }
query b { head: R(B, x) body: T(x, 'late2') }
query z { head: R(Z, x) body: T(x, 'c1') }`)
	for _, q := range qs[:4] {
		if out, err := c.Submit(q); err != nil || len(out.Coordinated) != 0 {
			t.Fatalf("%s should wait: %+v %v", q.ID, out, err)
		}
	}
	tbl, _ := inst.Relation("T")
	tbl.Insert("t-late1", "late1")
	tbl.Insert("t-late2", "late2")

	out, err := c.Submit(qs[4])
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(out); !slices.Equal(got, []string{"z"}) || out.Pending != 4 {
		t.Fatalf("Submit retires z alone: got %v, pending %d", got, out.Pending)
	}
	outs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || !slices.Equal(ids(outs[0]), []string{"a2", "a"}) || !slices.Equal(ids(outs[1]), []string{"b"}) {
		t.Fatalf("Flush retires {a2, a} then {b}: %+v", outs)
	}
	if outs[1].Pending != 1 || c.PendingCount() != 1 {
		t.Fatalf("only hub waits: %d / %d", outs[1].Pending, c.PendingCount())
	}
}

// Overlapping submissions must answer every query exactly once: each
// goroutine parks a head and then completes it, while the others'
// arrivals move the session's selected team under it.
func TestConcurrentSubmitsAnswerEachQueryOnce(t *testing.T) {
	c := New(newInstance())
	const workers = 8
	answered := make(chan string, 4*workers) // room for the duplicates a broken policy would report
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pair := eq.MustParseSet(fmt.Sprintf(`
query h%[1]d { post: R(T%[1]d, y) head: R(H%[1]d, x) body: T(x, 'c1') }
query t%[1]d { head: R(T%[1]d, x) body: T(x, 'c2') }`, w))
			for _, q := range pair {
				out, err := c.Submit(q)
				if err != nil {
					t.Errorf("%s: %v", q.ID, err)
					return
				}
				for _, id := range ids(out) {
					answered <- id
				}
			}
		}(w)
	}
	wg.Wait()
	close(answered)
	seen := map[string]int{}
	for id := range answered {
		if seen[id]++; seen[id] > 1 {
			t.Errorf("%s answered twice", id)
		}
	}
	if len(seen) != 2*workers || c.PendingCount() != 0 {
		t.Fatalf("answered %d distinct queries, %d pending; want %d and 0: %v", len(seen), c.PendingCount(), 2*workers, seen)
	}
}
