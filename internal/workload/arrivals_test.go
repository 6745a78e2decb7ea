package workload

import (
	"reflect"
	"testing"

	"entangled/internal/coord"
	"entangled/internal/eq"
)

// TestArrivalsDeterministic: same seed, same sequence; different seed,
// different sequence (for every pattern).
func TestArrivalsDeterministic(t *testing.T) {
	for _, p := range Patterns() {
		a := Arrivals(p, 64, 16, 3)
		b := Arrivals(p, 64, 16, 3)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: not deterministic under a seed", p)
		}
		if len(a) != 64 {
			t.Fatalf("%s: %d arrivals", p, len(a))
		}
	}
	if reflect.DeepEqual(Arrivals(Churn, 64, 16, 3), Arrivals(Churn, 64, 16, 4)) {
		t.Fatal("churn: seeds 3 and 4 generated identical sequences")
	}
}

// TestArrivalsAdmissible replays each pattern and checks the generator's
// contract: joins are unique IDs forming a safe set at every prefix,
// leaves always name a live query, and gaps are positive.
func TestArrivalsAdmissible(t *testing.T) {
	for _, p := range Patterns() {
		live := map[string]eq.Query{}
		for i, a := range Arrivals(p, 96, 16, 11) {
			if a.Gap <= 0 {
				t.Fatalf("%s[%d]: gap %v", p, i, a.Gap)
			}
			if a.Leave {
				if _, ok := live[a.ID]; !ok {
					t.Fatalf("%s[%d]: leave of absent %s", p, i, a.ID)
				}
				delete(live, a.ID)
				continue
			}
			if _, dup := live[a.Query.ID]; dup {
				t.Fatalf("%s[%d]: duplicate join %s", p, i, a.Query.ID)
			}
			live[a.Query.ID] = a.Query
			var qs []eq.Query
			for _, q := range live {
				qs = append(qs, q)
			}
			if !coord.IsSafe(qs) {
				t.Fatalf("%s[%d]: prefix is unsafe after %s", p, i, a.Query.ID)
			}
		}
	}
}

// TestChurnHasLeaves: the churn pattern actually generates departures,
// and the join-only patterns do not.
func TestChurnHasLeaves(t *testing.T) {
	leaves := func(p Pattern) int {
		n := 0
		for _, a := range Arrivals(p, 100, 16, 1) {
			if a.Leave {
				n++
			}
		}
		return n
	}
	if leaves(Churn) == 0 {
		t.Fatal("churn generated no departures")
	}
	if leaves(Steady) != 0 || leaves(Bursty) != 0 {
		t.Fatal("join-only patterns generated departures")
	}
}

// TestBurstyGaps: bursty traffic alternates short in-burst gaps with
// long pauses; steady traffic is uniform.
func TestBurstyGaps(t *testing.T) {
	var short, long int
	for _, a := range Arrivals(Bursty, 64, 16, 2) {
		if a.Gap < 0.5 {
			short++
		} else {
			long++
		}
	}
	if short == 0 || long == 0 {
		t.Fatalf("bursty gaps not bimodal: %d short, %d long", short, long)
	}
	for _, a := range Arrivals(Steady, 64, 16, 2) {
		if a.Gap != 1 {
			t.Fatalf("steady gap %v", a.Gap)
		}
	}
}

// Patterns lists the supported arrival patterns.
func Patterns() []Pattern { return []Pattern{Steady, Bursty, Churn} }
