package workload

import (
	"math/rand"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/netgen"
)

func TestUserTable(t *testing.T) {
	in := db.NewInstance()
	r := UserTable(in, 100)
	if r.Len() != 100 || r.Arity() != 2 {
		t.Fatalf("table shape: %d x %d", r.Len(), r.Arity())
	}
	// Every generated body value is present.
	sat, err := in.Satisfiable(bodyFor(42, 100))
	if err != nil || !sat {
		t.Fatalf("body must be satisfiable: %v %v", sat, err)
	}
}

func TestListQueriesShape(t *testing.T) {
	qs := ListQueries(5, 100)
	if len(qs) != 5 {
		t.Fatalf("len = %d", len(qs))
	}
	for i, q := range qs {
		if len(q.Head) != 1 || len(q.Body) != 1 {
			t.Fatalf("query %d shape: %v", i, q)
		}
		if i < 4 && len(q.Post) != 1 {
			t.Fatalf("query %d needs a post", i)
		}
		if i == 4 && len(q.Post) != 0 {
			t.Fatal("last query must be free")
		}
	}
	// Post of i names user i+1.
	if qs[0].Post[0].Args[0].Const() != User(1) {
		t.Fatalf("post target: %v", qs[0].Post[0])
	}
}

func TestGraphQueriesFollowStructure(t *testing.T) {
	g := netgen.Cycle(4)
	qs := GraphQueries(g, 50)
	for i, q := range qs {
		if len(q.Post) != 1 {
			t.Fatalf("cycle node %d has one successor: %v", i, q.Post)
		}
		want := User((i + 1) % 4)
		if q.Post[0].Args[0].Const() != want {
			t.Fatalf("node %d posts to %v, want %v", i, q.Post[0].Args[0], want)
		}
	}
}

func TestFlightsTableDistinctPairs(t *testing.T) {
	for _, c := range []struct{ flights, pairs int }{{100, 10}, {100, 100}} {
		in := db.NewInstance()
		FlightsTable(in, c.flights, c.pairs)
		n := 0
		if err := in.Project("Flights", []int{1, 2}, 1, func(int) map[int]eq.Value { return nil }, func(int, db.Tuple) { n++ }); err != nil {
			t.Fatal(err)
		}
		if n != c.pairs {
			t.Fatalf("%d flights over %d pairs: distinct pairs = %d", c.flights, c.pairs, n)
		}
	}
}

func TestCompleteFriends(t *testing.T) {
	in := db.NewInstance()
	f := CompleteFriends(in, 5)
	if f.Len() != 20 {
		t.Fatalf("rows = %d, want n(n-1)", f.Len())
	}
}

func TestGraphFriends(t *testing.T) {
	in := db.NewInstance()
	g := netgen.Chain(3)
	f := GraphFriends(in, g)
	if f.Len() != 2 {
		t.Fatalf("rows = %d", f.Len())
	}
}

func TestFlightQueriesAllWildcard(t *testing.T) {
	qs := FlightQueries(3)
	for _, q := range qs {
		for _, p := range q.Coord {
			if !p.Any {
				t.Fatal("worst-case workload is all-wildcard")
			}
		}
		if len(q.Partners) != 1 || !q.Partners[0].AnyFriend {
			t.Fatal("one friend slot per user")
		}
	}
}

func TestRandomFlightQueriesUsers(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	qs := RandomFlightQueries(6, 3, 0.5, rng)
	if len(qs) != 6 {
		t.Fatalf("len = %d", len(qs))
	}
	for i, q := range qs {
		if q.User != User(i) {
			t.Fatalf("user %d = %v", i, q.User)
		}
		for _, p := range q.Partners {
			if !p.AnyFriend && p.Name == q.User {
				t.Fatal("a user cannot partner with itself")
			}
		}
	}
}

func TestRandomSafeQueriesSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 20; trial++ {
		qs := RandomSafeQueries(6, 10, 0.4, 0.5, rng)
		// One head per distinct user name keeps the set safe; verify the
		// invariant directly: no two queries share a head user.
		seen := map[string]bool{}
		for _, q := range qs {
			u := string(q.Head[0].Args[0].Const())
			if seen[u] {
				t.Fatal("duplicate head user")
			}
			seen[u] = true
		}
	}
}
