package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"entangled/internal/eq"
)

// ChainQuery builds one link of a backward coordination chain: user
// (cluster, i) asks to coordinate with the already-present user
// (cluster, i-1); the chain head (i == 0) has no postcondition. Backward
// chains are the streaming-friendly serving shape — a new tail extends
// its scenario without touching any existing component's reachable set,
// so an arrival's dirty region is one component regardless of session
// size. Bodies pin the shared table value c_{cluster mod tableRows}, so
// each scenario grounds through one value (and routes to one shard on a
// val-partitioned store).
func ChainQuery(cluster, i, tableRows int) eq.Query {
	q := eq.Query{
		ID:   fmt.Sprintf("c%d.u%d", cluster, i),
		Head: []eq.Atom{eq.NewAtom("R", eq.C(chainUser(cluster, i)), eq.V("x"))},
		Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C(eq.Value("c"+strconv.Itoa(cluster%tableRows))))},
	}
	if i > 0 {
		q.Post = []eq.Atom{eq.NewAtom("R", eq.C(chainUser(cluster, i-1)), eq.V("y"))}
	}
	return q
}

func chainUser(cluster, i int) eq.Value {
	return eq.Value(fmt.Sprintf("U%d.%d", cluster, i))
}

// Pattern names an arrival-pattern generator.
type Pattern string

const (
	// Steady is join-only traffic at a uniform rate, spread across
	// scenarios (deterministically pseudo-random under the seed).
	Steady Pattern = "steady"
	// Bursty is join-only traffic arriving in bursts: a burst of
	// arrivals back-to-back, then a long pause, same mean rate as
	// Steady.
	Bursty Pattern = "bursty"
	// Churn mixes arrivals with departures (roughly one leave per three
	// joins): half the departures clip a scenario's tail, half remove an
	// interior member, which strands the suffix's postconditions and
	// exercises the incremental pruning cascade.
	Churn Pattern = "churn"
)

// Arrival is one generated stream event plus its inter-arrival gap,
// expressed in units of the mean gap so callers scale it to any target
// rate (gap * mean interval = wall-clock wait before the event). The
// type is deliberately stream-agnostic — workload generators feed
// stream.Session, benchmarks and tests alike; converting to a
// stream.Event is a one-liner on the caller's side (keeping this
// package below internal/stream in the import graph).
type Arrival struct {
	// Leave discriminates: false is a join carrying Query, true is a
	// departure naming ID.
	Leave bool
	Query eq.Query
	ID    string
	Gap   float64
}

// Arrivals generates n stream events following a pattern, deterministic
// under seed. Scenarios are backward chains (ChainQuery) of about 16
// queries each; tableRows bounds the distinct body values, as in the
// other workload builders. Every generated sequence is admissible: no
// arrival is unsafe, departures name live queries, and any prefix of
// the sequence is a safe set.
func Arrivals(p Pattern, n, tableRows int, seed int64) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	clusters := 1 + (n-1)/16
	next := make([]int, clusters)   // cluster -> next chain index
	live := make([][]int, clusters) // cluster -> live chain indices, ascending
	out := make([]Arrival, 0, n)

	join := func(gap float64) {
		c := rng.Intn(clusters)
		q := ChainQuery(c, next[c], tableRows)
		live[c] = append(live[c], next[c])
		next[c]++
		out = append(out, Arrival{Query: q, Gap: gap})
	}
	leave := func(gap float64) bool {
		// Pick a random non-empty cluster.
		var cands []int
		for c := range live {
			if len(live[c]) > 0 {
				cands = append(cands, c)
			}
		}
		if len(cands) == 0 {
			return false
		}
		c := cands[rng.Intn(len(cands))]
		k := len(live[c]) - 1 // clip the tail...
		if rng.Float64() < 0.5 {
			k = rng.Intn(len(live[c])) // ...or strand a suffix
		}
		i := live[c][k]
		live[c] = append(live[c][:k], live[c][k+1:]...)
		out = append(out, Arrival{Leave: true, ID: fmt.Sprintf("c%d.u%d", c, i), Gap: gap})
		return true
	}

	switch p {
	case Bursty:
		const burst = 8
		for len(out) < n {
			gap := float64(burst) + 0.2 // the pause carries the burst's budget
			for b := 0; b < burst && len(out) < n; b++ {
				join(gap)
				gap = 0.1
			}
		}
	case Churn:
		for len(out) < n {
			if rng.Float64() < 0.25 && leave(1) {
				continue
			}
			join(1)
		}
	default: // Steady
		for len(out) < n {
			join(1)
		}
	}
	return out
}
