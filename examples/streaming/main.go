// Streaming walkthrough: a scenario grows one user at a time, the
// session re-coordinates only what each arrival touches, and a
// departure strands (then a return repairs) the chain's tail. Run:
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/stream"
)

func main() {
	// Flights(fid, dest): the table everyone grounds against.
	in := db.NewInstance()
	fl := in.CreateRelation("Flights", "fid", "dest")
	fl.Insert("f1", "Paris")
	fl.Insert("f2", "Tokyo")

	// Each user wants to fly where the previous arrival flies: a
	// backward chain, the streaming-friendly shape — an arrival only
	// ever extends the tail, so the largest set is the new arrival's,
	// and re-coordination searches that one component.
	user := func(name, buddy string) eq.Query {
		q := eq.Query{
			ID:   name,
			Head: []eq.Atom{eq.NewAtom("Go", eq.C(eq.Value(name)), eq.V("d"))},
			Body: []eq.Atom{eq.NewAtom("Flights", eq.V("f"), eq.V("d"))},
		}
		if buddy != "" {
			q.Post = []eq.Atom{eq.NewAtom("Go", eq.C(eq.Value(buddy)), eq.V("e"))}
		}
		return q
	}

	s := stream.New(in, stream.Options{})
	join := func(name, buddy string) {
		up, err := s.Join(user(name, buddy))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("join %-6s team=%d dirty=%d spliced=%d dbqueries=%d\n",
			name, up.TeamSize, up.Stats.Dirty, up.Stats.Reused, up.Stats.DBQueries)
	}

	join("ana", "")
	join("bo", "ana")
	join("cy", "bo")
	join("dee", "cy")

	// Bo leaves: cy and dee posted (transitively) to him, so the suffix
	// is stranded and pruned; ana remains coordinated alone, her set
	// spliced from the cache.
	up, err := s.Leave("bo")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leave bo     team=%d dirty=%d spliced=%d dbqueries=%d (stranded users pruned)\n",
		up.TeamSize, up.Stats.Dirty, up.Stats.Reused, up.Stats.DBQueries)

	// Bo returns: the chain re-forms, and its set, the largest, is the
	// one search.
	join("bo", "ana")

	res, err := s.Result()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final team of %d:", res.Size())
	for _, i := range res.Set {
		q := s.Queries()[i]
		fmt.Printf(" %s->%s", q.ID, res.Values[i]["d"])
	}
	fmt.Println()
}
