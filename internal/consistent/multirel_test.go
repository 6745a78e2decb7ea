package consistent

import (
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// multiRelInstance: a world with separate "Friends" and "Colleagues"
// relations over one cinema table.
func multiRelInstance() *db.Instance {
	in := db.NewInstance()
	m := in.CreateRelation("M", "movie_id", "cinema_name", "movie_name")
	m.Insert("m1", "Regal", "Hugo")
	m.Insert("m2", "AMC", "Hugo")
	m.BuildIndex(1)
	f := in.CreateRelation("C", "user", "friend")
	f.Insert("A", "B")
	f.Insert("B", "A")
	w := in.CreateRelation("Colleagues", "user", "colleague")
	w.Insert("A", "D")
	w.Insert("D", "A")
	return in
}

func anyMovie() Query {
	return Query{Coord: []Pref{DontCare}, Own: []Pref{DontCare}}
}

func TestFriendFromOtherRelation(t *testing.T) {
	in := multiRelInstance()
	// A wants one friend AND one colleague; B is a friend, D a
	// colleague.
	a := anyMovie()
	a.User = "A"
	a.Partners = []Partner{Friend, FriendFrom("Colleagues")}
	b := anyMovie()
	b.User = "B"
	b.Partners = []Partner{Friend}
	d := anyMovie()
	d.User = "D"
	d.Partners = []Partner{FriendFrom("Colleagues")}
	res, err := Coordinate(moviesSchema(), []Query{a, b, d}, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Members) != 3 {
		t.Fatalf("all three coordinate: %v", res)
	}
	// Drop D: A's colleague slot is unfillable, so A leaves, then B
	// (whose only friend is A) follows.
	res2, err := Coordinate(moviesSchema(), []Query{a, b}, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2 != nil {
		t.Fatalf("colleague slot unfillable: want nil, got %v", res2)
	}
}

func TestDistinctRepresentativesAcrossRelations(t *testing.T) {
	// A's two slots draw from relations whose only candidates overlap in
	// one user: slot1 (Friends) can be filled by {B}, slot2 (Colleagues)
	// by {B} too — one person cannot fill two slots.
	in := db.NewInstance()
	m := in.CreateRelation("M", "movie_id", "cinema_name", "movie_name")
	m.Insert("m1", "Regal", "Hugo")
	f := in.CreateRelation("C", "user", "friend")
	f.Insert("A", "B")
	f.Insert("B", "A")
	w := in.CreateRelation("Colleagues", "user", "colleague")
	w.Insert("A", "B")

	a := anyMovie()
	a.User = "A"
	a.Partners = []Partner{Friend, FriendFrom("Colleagues")}
	b := anyMovie()
	b.User = "B"
	b.Partners = []Partner{Friend}
	res, err := Coordinate(moviesSchema(), []Query{a, b}, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("B cannot fill both of A's slots: want nil, got %v", res)
	}

	// Adding a colleague E unblocks the matching.
	w.Insert("A", "E")
	e := anyMovie()
	e.User = "E"
	res2, err := Coordinate(moviesSchema(), []Query{a, b, e}, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2 == nil || len(res2.Members) != 3 {
		t.Fatalf("matching should succeed with E present: %v", res2)
	}
}

func TestMatchSlotsAugmentingPath(t *testing.T) {
	// Three slots over {x}, {x, y}, {y, z}: needs the augmenting-path
	// reshuffle (greedy in order x, x->y, y->z works, but order {x,y}
	// first would grab x and force a swap).
	cases := []struct {
		slots [][]eq.Value
		want  bool
	}{
		{[][]eq.Value{{"x"}, {"x", "y"}, {"y", "z"}}, true},
		{[][]eq.Value{{"x"}, {"x"}}, false},
		{[][]eq.Value{{"x", "y"}, {"x", "y"}, {"x", "y"}}, false},
		{[][]eq.Value{{"x", "y"}, {"y", "z"}, {"z", "x"}}, true},
		{nil, true},
		{[][]eq.Value{{"only"}}, true},
	}
	for i, c := range cases {
		if got := matchSlots(c.slots); got != c.want {
			t.Errorf("case %d: matchSlots(%v) = %v, want %v", i, c.slots, got, c.want)
		}
		if got := kernelMatchSlots(t, c.slots); got != c.want {
			t.Errorf("case %d: kernel on %v = %v, want %v", i, c.slots, got, c.want)
		}
	}
}

// kernelMatchSlots puts the same question to the kernel's matching,
// through Coordinate: user A has one friend slot per entry of slots,
// each over its own relation listing that slot's candidates, and every
// candidate submits a partnerless query; A is a member exactly when its
// slots can be filled by distinct candidates.
func kernelMatchSlots(t *testing.T, slots [][]eq.Value) bool {
	t.Helper()
	in := db.NewInstance()
	in.CreateRelation("M", "movie_id", "cinema_name", "movie_name").Insert("m1", "Regal", "Hugo")
	in.CreateRelation("C", "user", "friend")
	a := anyMovie()
	a.User = "A"
	qs := []Query{a}
	asked := map[eq.Value]bool{}
	for s, cands := range slots {
		rel := "R" + string(rune('0'+s))
		r := in.CreateRelation(rel, "user", "friend")
		qs[0].Partners = append(qs[0].Partners, FriendFrom(rel))
		for _, c := range cands {
			r.Insert("A", c)
			if !asked[c] {
				asked[c] = true
				q := anyMovie()
				q.User = c
				qs = append(qs, q)
			}
		}
	}
	res, err := Coordinate(moviesSchema(), qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res != nil && res.Members[0] == 0
}

func TestMultiRelSweepAgrees(t *testing.T) {
	in := multiRelInstance()
	a := anyMovie()
	a.User = "A"
	a.Partners = []Partner{Friend, FriendFrom("Colleagues")}
	b := anyMovie()
	b.User = "B"
	b.Partners = []Partner{Friend}
	d := anyMovie()
	d.User = "D"
	d.Partners = []Partner{FriendFrom("Colleagues")}
	qs := []Query{a, b, d}
	r1, err := Coordinate(moviesSchema(), qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := oracleCoordinate(moviesSchema(), qs, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if (r1 == nil) != (r2 == nil) || len(r1.Members) != len(r2.Members) {
		t.Fatalf("cleaning strategies disagree: %v vs %v", r1, r2)
	}
}

// FriendFrom builds a wildcard partner slot over a specific binary
// relation.
func FriendFrom(rel string) Partner { return Partner{AnyFriend: true, Rel: rel} }
