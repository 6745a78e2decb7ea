// Flight-hotel coordination: the running example of §2.2 and §4 of the
// paper (Figure 1). Four band members entangle flight and hotel choices:
//
//   - Chris wants to share a flight with Guy (any destination);
//   - Guy wants Paris, sharing flight and hotel with Chris;
//   - Jonny wants Athens on Chris and Guy's flight (impossible if they
//     go to Paris);
//   - Will wants Madrid on Chris's flight, staying in Jonny's hotel.
//
// The set is safe but not unique, so the Gupta et al. baseline rejects
// it while the SCC Coordination Algorithm condenses {qC, qG} into one
// strongly connected component and searches the reachable sets largest
// first: qW's and qJ's find no tuple, and {qC, qG}'s grounds.
//
// Run with: go run ./examples/flighthotel
package main

import (
	"fmt"
	"log"

	"entangled"
	"entangled/internal/coord"
)

func main() {
	qs, err := entangled.ParseSet(`
query qC {
  post: R(G, x1)
  head: R(C, x1), Q(C, x2)
  body: F(x1, x), H(x2, x)
}
query qG {
  post: R(C, y1), Q(C, y2)
  head: R(G, y1), Q(G, y2)
  body: F(y1, Paris), H(y2, Paris)
}
query qJ {
  post: R(C, z1), R(G, z1)
  head: R(J, z1), Q(J, z2)
  body: F(z1, Athens), H(z2, Athens)
}
query qW {
  post: R(C, w1), Q(J, w2)
  head: R(W, w1), Q(W, w2)
  body: F(w1, Madrid), H(w2, Madrid)
}`)
	if err != nil {
		log.Fatal(err)
	}

	inst := entangled.NewInstance()
	f := inst.CreateRelation("F", "flightId", "destination")
	f.Insert("70", "Paris")
	f.Insert("71", "Athens")
	f.Insert("72", "Madrid")
	h := inst.CreateRelation("H", "hotelId", "location")
	h.Insert("h1", "Paris")
	h.Insert("h2", "Athens")
	h.Insert("h3", "Madrid")

	fmt.Println("the Figure 1 query set:")
	for _, q := range qs {
		fmt.Printf("  %-4s %s\n", q.ID+":", q)
	}

	// The coordination graph and its strongly connected components.
	fmt.Printf("\nsafe: %v, unique: %v\n", entangled.IsSafe(qs), entangled.IsUnique(qs))
	dag, members := coord.ComponentsOf(qs)
	fmt.Printf("strongly connected components (%d):\n", dag.N())
	for c, ms := range members {
		ids := make([]string, len(ms))
		for i, m := range ms {
			ids[i] = qs[m].ID
		}
		fmt.Printf("  component %d: %v\n", c, ids)
	}

	// The baseline cannot cope with non-unique sets.
	if _, err := coord.GuptaCoordinate(qs, inst); err != nil {
		fmt.Printf("\nGupta et al. baseline: %v\n", err)
	}

	// The SCC Coordination Algorithm finds the feasible subset.
	res, err := entangled.Coordinate(qs, inst, entangled.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSCC algorithm: coordinating set %v with %d database queries\n",
		res.IDs(qs), res.DBQueries)
	for _, i := range res.Set {
		fmt.Printf("  %s travels: flight=%s hotel=%s\n",
			qs[i].ID, firstOf(res.Values[i], "x1", "y1"), firstOf(res.Values[i], "x2", "y2"))
	}
	if err := entangled.Verify(qs, res.Set, res.Values, inst); err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	fmt.Println("\nJonny and Will stay home: Athens is not on the Paris flight,")
	fmt.Println("and Will's requirements depend on Jonny's hotel.")
}

// firstOf returns the first present variable's value.
func firstOf(vals map[string]entangled.Value, names ...string) entangled.Value {
	for _, n := range names {
		if v, ok := vals[n]; ok {
			return v
		}
	}
	return "?"
}
