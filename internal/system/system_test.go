package system

import (
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

func newInstance() *db.Instance {
	in := db.NewInstance()
	workload.UserTable(in, 20)
	return in
}

func TestSubmitLoneQueryCoordinatesImmediately(t *testing.T) {
	c := New(newInstance())
	q := eq.MustParseSet(`query solo { head: R(U0, x) body: T(x, 'c1') }`)[0]
	out, err := c.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Coordinated) != 1 || out.Coordinated[0].ID != "solo" {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Pending != 0 {
		t.Fatalf("pending = %d", out.Pending)
	}
	if len(c.Pending()) != 0 {
		t.Fatal("answered query must be retired")
	}
}

func TestChainCoordinatesWhenComplete(t *testing.T) {
	c := New(newInstance())
	qs := workload.ListQueries(3, 20)
	// q0 needs q1 which needs q2; submitting in order parks the first
	// two.
	for i := 0; i < 2; i++ {
		out, err := c.Submit(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Coordinated) != 0 {
			t.Fatalf("query %d should be pending, got %+v", i, out)
		}
	}
	out, err := c.Submit(qs[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Coordinated) != 3 {
		t.Fatalf("whole chain should coordinate: %+v", out)
	}
	if out.Pending != 0 {
		t.Fatalf("pending = %d", out.Pending)
	}
	// Everybody got a value for every variable.
	for _, q := range qs {
		vals := out.Values[q.ID]
		for _, v := range q.Vars() {
			if _, ok := vals[v]; !ok {
				t.Fatalf("query %s variable %s unassigned", q.ID, v)
			}
		}
	}
}

func TestReverseOrderRetiresTailFirst(t *testing.T) {
	// Submitting the tail first answers it alone; the earlier queries
	// then wait forever (their partner is gone) — the choose-1 contract.
	c := New(newInstance())
	qs := workload.ListQueries(2, 20)
	out, err := c.Submit(qs[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Coordinated) != 1 {
		t.Fatalf("tail coordinates alone: %+v", out)
	}
	out, err = c.Submit(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Coordinated) != 0 || out.Pending != 1 {
		t.Fatalf("head must wait: %+v", out)
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	c := New(newInstance())
	qs := workload.ListQueries(2, 20)
	if _, err := c.Submit(qs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(qs[0]); err == nil {
		t.Fatal("duplicate id must be rejected")
	}
}

func TestAnonymousIDsAssigned(t *testing.T) {
	c := New(newInstance())
	q := eq.MustParseSet(`query x { head: R(U0, x) body: T(x, 'c1') }`)[0]
	q.ID = ""
	out, err := c.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Coordinated) != 1 || out.Coordinated[0].ID == "" {
		t.Fatalf("anonymous query must get an id: %+v", out)
	}
}

func TestFlush(t *testing.T) {
	c := New(newInstance())
	// Two independent pairs, parked by submitting only their heads.
	qs := eq.MustParseSet(`
query a0 { post: R(A1, y) head: R(A0, x) body: T(x, 'c1') }
query a1 { head: R(A1, x) body: T(x, 'c2') }
query b0 { post: R(B1, y) head: R(B0, x) body: T(x, 'c3') }
query b1 { head: R(B1, x) body: T(x, 'c4') }`)
	// Submit the waiting heads first.
	for _, i := range []int{0, 2} {
		out, err := c.Submit(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Coordinated) != 0 {
			t.Fatalf("%s should wait: %+v", qs[i].ID, out)
		}
	}
	// The tails arrive; each submission resolves its pair.
	for _, i := range []int{1, 3} {
		out, err := c.Submit(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Coordinated) != 2 {
			t.Fatalf("pair of %s should coordinate: %+v", qs[i].ID, out)
		}
	}
	outs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 {
		t.Fatalf("nothing left to flush: %v", outs)
	}
}

func TestCancel(t *testing.T) {
	c := New(newInstance())
	qs := workload.ListQueries(3, 20)
	// Park the first two (they wait for successors).
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(qs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if c.PendingCount() != 2 {
		t.Fatalf("pending = %d", c.PendingCount())
	}
	if !c.Cancel(qs[1].ID) {
		t.Fatal("cancel should find the pending query")
	}
	if c.Cancel(qs[1].ID) {
		t.Fatal("second cancel should miss")
	}
	// The tail now arrives; q0's partner q1 is gone, so only the tail
	// coordinates (alone).
	out, err := c.Submit(qs[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Coordinated) != 1 || out.Coordinated[0].ID != qs[2].ID {
		t.Fatalf("only the tail coordinates: %+v", out)
	}
	if c.PendingCount() != 1 {
		t.Fatalf("q0 still waits: %d", c.PendingCount())
	}
}
