// Movie night: the §5 example of the paper, where the query set is
// *unsafe* — each band member wants to go to a cinema with "at least one
// friend", without naming them — so the general-purpose algorithms do
// not apply. Because everyone coordinates on the same attribute (the
// cinema), the Consistent Coordination Algorithm solves it: enumerate
// candidate cinemas, restrict the pruned coordination graph to each, and
// clean away members whose requirements fail.
//
// Run with: go run ./examples/movienight
package main

import (
	"fmt"
	"log"

	"entangled"
	"entangled/internal/consistent"
)

func main() {
	inst := entangled.NewInstance()
	m := inst.CreateRelation("M", "movie_id", "cinema_name", "movie_name")
	m.Insert("m1", "Regal", "Contagion")
	m.Insert("m2", "AMC", "ProjectX")
	m.Insert("m3", "Regal", "Hugo")
	m.Insert("m4", "AMC", "Hugo")
	m.Insert("m5", "Cinemark", "Hugo")
	m.BuildIndex(1)

	c := inst.CreateRelation("C", "user", "friend")
	for _, p := range [][2]entangled.Value{
		{"Chris", "Jonny"}, {"Chris", "Guy"},
		{"Guy", "Chris"}, {"Guy", "Jonny"},
		{"Jonny", "Chris"}, {"Jonny", "Will"},
		{"Will", "Chris"}, {"Will", "Guy"},
	} {
		c.Insert(p[0], p[1])
	}
	c.BuildIndex(0)

	sch := entangled.ConsistentSchema{
		Table:     "M",
		KeyCol:    0,
		CoordCols: []int{1}, // everyone coordinates on the cinema
		OwnCols:   []int{2}, // the movie is a personal choice
		Friends:   "C",
	}
	qs := []entangled.ConsistentQuery{
		{User: "Chris", Coord: []entangled.Pref{consistent.Is("Regal")}, Own: []entangled.Pref{consistent.Is("Contagion")}, Partners: []entangled.Partner{consistent.With("Will")}},
		{User: "Guy", Coord: []entangled.Pref{consistent.Is("AMC")}, Own: []entangled.Pref{consistent.Is("ProjectX")}, Partners: []entangled.Partner{consistent.Friend}},
		{User: "Jonny", Coord: []entangled.Pref{consistent.DontCare}, Own: []entangled.Pref{consistent.Is("Hugo")}, Partners: []entangled.Partner{consistent.Friend}},
		{User: "Will", Coord: []entangled.Pref{consistent.DontCare}, Own: []entangled.Pref{consistent.Is("Hugo")}, Partners: []entangled.Partner{consistent.Friend}},
	}

	fmt.Println("requests:")
	for _, q := range qs {
		fmt.Printf("  %-6s cinema=%s movie=%s partners=%v\n", q.User, q.Coord[0], q.Own[0], describe(q.Partners))
	}

	// The entangled-query form of these requests is unsafe: the friend
	// variable in a postcondition unifies with every head.
	eqs, err := consistent.ToEntangledSet(sch, qs, inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nas entangled queries the set is safe: %v — §4 does not apply, §5 does\n\n", entangled.IsSafe(eqs))

	res, err := entangled.CoordinateConsistent(sch, qs, inst, consistent.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if res == nil {
		fmt.Println("no coordinating set")
		return
	}
	fmt.Println("candidate cinemas and who survives cleaning:")
	for _, cand := range res.Candidates {
		names := make([]entangled.Value, len(cand.Members))
		for i, mIdx := range cand.Members {
			names[i] = qs[mIdx].User
		}
		fmt.Printf("  %-9s -> %v\n", cand.Value[0], names)
	}
	fmt.Printf("\nwinner: %s\n", res.Value[0])
	for _, i := range res.Members {
		fmt.Printf("  %-6s watches movie %s\n", qs[i].User, res.Keys[i])
	}
	fmt.Printf("(%d database queries — one batch of option lists, one of friend lists)\n", res.DBQueries)
}

func describe(ps []entangled.Partner) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		if p.AnyFriend {
			out[i] = "any friend"
		} else {
			out[i] = string(p.Name)
		}
	}
	return out
}
