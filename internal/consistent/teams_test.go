package consistent_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"entangled/internal/consistent"
	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

// concertTour is the concert-tour example's input, its concert join
// materialised: Ana and Bo reach both Zurich on day 11 and Berlin on day
// 18, Chen's Qantas trip has no friend on it and Dee's Zurich pin no
// friend either, so two candidates hold one team.
func concertTour() (consistent.Schema, []consistent.Query, *db.Instance) {
	in := db.NewInstance()
	trips := in.CreateRelation("Trips", "tripId", "destination", "day", "source", "airline")
	for _, r := range [][5]eq.Value{
		{"f1", "Zurich", "11", "NYC", "Swiss"},
		{"f2", "Paris", "14", "NYC", "AirFrance"},
		{"f3", "Zurich", "11", "Tokyo", "ANA"},
		{"f4", "Berlin", "18", "Tokyo", "Lufthansa"},
		{"f5", "Paris", "14", "Sydney", "Qantas"},
		{"f7", "Berlin", "18", "NYC", "Delta"},
	} {
		trips.Insert(r[:]...)
	}
	friends := in.CreateRelation("Friends", "user", "friend")
	for _, p := range [][2]eq.Value{{"Ana", "Bo"}, {"Bo", "Ana"}, {"Bo", "Chen"}, {"Chen", "Bo"}, {"Chen", "Dee"}, {"Dee", "Chen"}} {
		friends.Insert(p[0], p[1])
	}
	sch := consistent.Schema{Table: "Trips", KeyCol: 0, CoordCols: []int{1, 2}, OwnCols: []int{3, 4}, Friends: "Friends"}
	free := consistent.DontCare
	qs := []consistent.Query{
		{User: "Ana", Coord: []consistent.Pref{free, free}, Own: []consistent.Pref{consistent.Is("NYC"), free}},
		{User: "Bo", Coord: []consistent.Pref{free, free}, Own: []consistent.Pref{consistent.Is("Tokyo"), free}},
		{User: "Chen", Coord: []consistent.Pref{free, free}, Own: []consistent.Pref{consistent.Is("Sydney"), consistent.Is("Qantas")}},
		{User: "Dee", Coord: []consistent.Pref{consistent.Is("Zurich"), free}, Own: []consistent.Pref{consistent.Is("NYC"), free}},
	}
	for i := range qs {
		qs[i].Partners = []consistent.Partner{consistent.Friend}
	}
	return sch, qs, in
}

// oneHash builds two teams, a and b, whose teamHash is the same: the
// queries of a alone pin value A, those of b alone pin B, those of both
// pin nothing, and the rest pin a value no row has. Nobody needs a
// partner, so each value's team is its members.
func oneHash(t *testing.T) (consistent.Schema, []consistent.Query, *db.Instance) {
	a, b := []int32{0, 6, 7, 8, 9, 11, 12, 15}, []int32{1, 5, 6, 8, 9, 10, 15, 16}
	if consistent.TeamHash(a) != consistent.TeamHash(b) {
		t.Fatal("the two teams no longer hash alike")
	}
	in := db.NewInstance()
	s := in.CreateRelation("S", "key", "c")
	s.Insert("tA", "A")
	s.Insert("tB", "B")
	in.CreateRelation("F", "user", "friend")
	qs := make([]consistent.Query, 17)
	for i := range qs {
		pin := consistent.Is("none")
		switch inA, inB := slices.Contains(a, int32(i)), slices.Contains(b, int32(i)); {
		case inA && inB:
			pin = consistent.DontCare
		case inA:
			pin = consistent.Is("A")
		case inB:
			pin = consistent.Is("B")
		}
		qs[i] = consistent.Query{User: eq.Value(fmt.Sprintf("u%d", i)), Coord: []consistent.Pref{pin}}
	}
	return consistent.Schema{Table: "S", KeyCol: 0, CoordCols: []int{1}, Friends: "F"}, qs, in
}

// Candidates whose teams are equal share one read-only Members slice,
// the Result's among them; candidates whose teams differ do not, even
// when their teams hash alike. The answer and the trace, which still
// lists every value's survivors, are the reference walk's.
func TestEqualTeamsShareOneMemberList(t *testing.T) {
	fig8qs, fig8 := figure8(25)
	concert, concertqs, tour := concertTour()
	pair, pairqs, paired := oneHash(t)
	for _, c := range []struct {
		name              string
		sch               consistent.Schema
		qs                []consistent.Query
		in                *db.Instance
		candidates, teams int
	}{
		{"Figure 8 at 25 users", workload.FlightSchema(), fig8qs, fig8, 100, 1},
		{"concert tour", concert, concertqs, tour, 2, 1},
		{"movies", consistent.MoviesSchema(), consistent.MoviesQueries(), consistent.MoviesInstance(), 2, 2},
		{"two teams, one hash", pair, pairqs, paired, 2, 2},
	} {
		var gotTrace, wantTrace consistent.Trace
		got, err := consistent.Coordinate(c.sch, c.qs, c.in, consistent.Options{Trace: &gotTrace})
		if err != nil {
			t.Fatal(err)
		}
		want, err := consistent.OracleCoordinate(c.sch, c.qs, c.in, consistent.Options{Trace: &wantTrace})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: kernel\n%+v\noracle\n%+v", c.name, got, want)
		}
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Fatalf("%s: trace: kernel\n%+v\noracle\n%+v", c.name, gotTrace, wantTrace)
		}
		cands := got.Candidates
		if len(cands) != c.candidates {
			t.Fatalf("%s: %d candidates, want %d", c.name, len(cands), c.candidates)
		}
		teams, winner := 0, false
		for x, a := range cands {
			first := true
			for _, b := range cands[:x] {
				equal, shared := slices.Equal(a.Members, b.Members), &a.Members[0] == &b.Members[0]
				if equal != shared {
					t.Errorf("%s: teams %v and %v: equal %v, sharing one array %v", c.name, a.Members, b.Members, equal, shared)
				}
				first = first && !equal
			}
			if first {
				teams++
			}
			winner = winner || &a.Members[0] == &got.Members[0]
		}
		if teams != c.teams {
			t.Errorf("%s: %d distinct teams, want %d", c.name, teams, c.teams)
		}
		if !winner {
			t.Errorf("%s: Result.Members %v is no candidate's slice", c.name, got.Members)
		}
		kept := 0
		for _, v := range gotTrace.Values {
			if len(v.Survivors) > 0 {
				if !reflect.DeepEqual(v.Value, cands[kept].Value) || !reflect.DeepEqual(v.Survivors, cands[kept].Members) {
					t.Errorf("%s: trace %+v, candidate %+v", c.name, v, cands[kept])
				}
				kept++
			}
		}
		if kept != len(cands) {
			t.Errorf("%s: the trace lists %d values with survivors for %d candidates", c.name, kept, len(cands))
		}
	}
}
