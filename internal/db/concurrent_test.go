package db

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"entangled/internal/eq"
)

var errStop = errors.New("stop")

// TestConcurrentReaders hammers one instance with parallel Solve,
// Project, Contains and Domain calls; run with -race to validate the
// read-path locking.
func TestConcurrentReaders(t *testing.T) {
	in := NewInstance()
	r := in.CreateRelation("T", "key", "val")
	for i := 0; i < 200; i++ {
		r.Insert(eq.Value(fmt.Sprintf("t%d", i)), eq.Value(fmt.Sprintf("c%d", i%50)))
	}
	r.BuildIndex(1)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				body := []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C(eq.Value(fmt.Sprintf("c%d", (w+i)%50))))}
				if _, ok, err := in.Solve(body); err != nil || !ok {
					t.Errorf("solve: ok=%v err=%v", ok, err)
					return
				}
				if _, err := projectRows(in, "T", []int{1}, nil); err != nil {
					t.Errorf("project: %v", err)
					return
				}
				if !in.Contains(eq.NewAtom("T", eq.C(eq.Value("t0")), eq.C(eq.Value("c0")))) {
					t.Error("contains: missing t0")
					return
				}
				if len(in.Domain()) == 0 {
					t.Error("domain: empty")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := in.QueriesIssued(); got != 8*50*2 {
		t.Fatalf("QueriesIssued = %d, want %d", got, 8*50*2)
	}
}

// TestConcurrentReadersAndWriters interleaves queries with inserts,
// index rebuilds and relation registration on one instance.
// Readers hold tuple views — Project's yielded rows among them — across
// the writers and re-read them: under -race that fails if a writer ever
// stores into a row a view covers.
func TestConcurrentReadersAndWriters(t *testing.T) {
	in := NewInstance()
	r := in.CreateRelation("T", "key", "val")
	for i := 0; i < 100; i++ {
		r.Insert(eq.Value(fmt.Sprintf("t%d", i)), eq.Value(fmt.Sprintf("c%d", i%10)))
	}
	r.BuildIndex(1)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Insert(eq.Value(fmt.Sprintf("x%d", i)), eq.Value(fmt.Sprintf("c%d", i%10)))
			if i%25 == 0 {
				r.BuildIndex(0)
			}
			side := in.CreateRelation(fmt.Sprintf("S%d", i), "a")
			side.Insert(eq.Value("v"))
		}
	}()
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			// Rows t0..t99 never change, so each view's values are known
			// for the whole run.
			var views, want []Tuple
			for i := 0; i < 100; i++ {
				body := []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C(eq.Value(fmt.Sprintf("c%d", i%10))))}
				if _, ok, err := in.Solve(body); err != nil || !ok {
					t.Errorf("solve: ok=%v err=%v", ok, err)
					return
				}
				in.RelationNames()
				in.Schema()
				sel, err := projectRows(in, "T", nil, map[int]eq.Value{0: eq.Value(fmt.Sprintf("t%d", i))})
				if err != nil || len(sel) != 1 {
					t.Errorf("select: %v %v", sel, err)
					return
				}
				// t0..t9 come first, so each c value's first row is one of them.
				proj, err := projectRows(in, "T", []int{1}, map[int]eq.Value{1: eq.Value(fmt.Sprintf("c%d", i%10))})
				if err != nil || len(proj) != 1 {
					t.Errorf("project: %v %v", proj, err)
					return
				}
				row := Tuple{eq.Value(fmt.Sprintf("t%d", i)), eq.Value(fmt.Sprintf("c%d", i%10))}
				views = append(views, r.Tuple(i), sel[0], proj[0])
				want = append(want, row, row, Tuple{eq.Value(fmt.Sprintf("t%d", i%10)), row[1]})
				if i%10 == 0 {
					_ = r.Tuples(func(t Tuple) error {
						views = append(views, t)
						want = append(want, Tuple{"t0", "c0"})
						return errStop
					})
				}
				for j, v := range views {
					if v[0] != want[j][0] || v[1] != want[j][1] {
						t.Errorf("view %d changed: %v, want %v", j, v, want[j])
						return
					}
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}
