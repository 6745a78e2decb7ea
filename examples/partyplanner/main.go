// Party planner: the online setting of §6.1. Queries arrive one at a
// time at a Youtopia-style coordination module; each arrival triggers an
// evaluation of the connected component it completes, and answered
// queries retire immediately (choose-1 semantics). This is the "future
// work" §7 scenario — continuous submission — running on the SCC
// Coordination Algorithm.
//
// Alice, Bob and Carol are picking a party. Bob wants to go where Alice
// goes; Carol wants to go where Bob goes; Alice just wants a party with
// live music. Nothing can be answered until Alice's request arrives and
// completes the chain.
//
// Run with: go run ./examples/partyplanner
package main

import (
	"fmt"
	"log"

	"entangled"
)

func main() {
	inst := entangled.NewInstance()
	parties := inst.CreateRelation("Parties", "pid", "music")
	parties.Insert("warehouse", "live")
	parties.Insert("rooftop", "dj")

	c := entangled.NewCoordinator(inst)

	submit := func(src string) {
		q, err := entangled.Parse(src)
		if err != nil {
			log.Fatal(err)
		}
		out, err := c.Submit(q)
		if err != nil {
			log.Fatal(err)
		}
		if len(out.Coordinated) == 0 {
			fmt.Printf("%s submits — waiting (%d pending)\n", q.ID, out.Pending)
			return
		}
		fmt.Printf("%s submits — coordinates %d queries:\n", q.ID, len(out.Coordinated))
		for _, cq := range out.Coordinated {
			// The head's second argument is the chosen party id.
			partyVar := cq.Head[0].Args[1].Name
			fmt.Printf("  %s goes to %s\n", cq.ID, out.Values[cq.ID][partyVar])
		}
	}

	// Bob needs Alice's answer; Carol needs Bob's. Both park.
	submit(`query bob {
	  post: R(Alice, x)
	  head: R(Bob, x)
	  body: Parties(x, m)
	}`)
	submit(`query carol {
	  post: R(Bob, y)
	  head: R(Carol, y)
	  body: Parties(y, m2)
	}`)

	// Alice completes the chain: all three coordinate on one party.
	// Note the quoting: 'live' is a constant (lowercase identifiers lex
	// as variables).
	submit(`query alice {
	  head: R(Alice, z)
	  body: Parties(z, 'live')
	}`)

	// A latecomer who wanted to join Alice is out of luck — her query
	// has been answered and retired.
	submit(`query dave {
	  post: R(Alice, w)
	  head: R(Dave, w)
	  body: Parties(w, m3)
	}`)
	fmt.Printf("pending at the end: %d (Dave keeps waiting; Alice already left)\n", len(c.Pending()))
}
