package coord

import (
	"slices"

	"entangled/internal/eq"
)

// cascade is the provider cascade of the §6.1 preprocessing, shared by
// the incremental coordinator (batch requests too) and the Gupta baseline: a
// query with a postcondition no unpruned head provides for is pruned,
// which can strand the queries it provided for in turn. It is
// round-synchronous — a round prunes, in ascending order, the queries
// stranded by the rounds before it — because traces record that order.
//
// Providers are counted once, one counter per (query, postcondition)
// laid out flat behind a per-query offset; a round then decrements only
// the counters its deaths touch: O(queries + edges) integer work on
// buffers kept between runs. The zero value is ready to use.
type cascade struct {
	off         []int32 // query -> its first counter; len n+1
	count       []int32 // unpruned providers per (query, postcondition)
	start       []int32 // query t's incoming edges are in[start[t]:start[t+1]]
	in          []int32 // edge indices grouped by provider (ToQ)
	round, next []int32 // queries this round prunes / strands
}

// sized returns xs with length n and unspecified contents. It
// reallocates only when capacity is short, with a quarter's headroom so
// that a set growing by one query per event does not do so every time.
func sized[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n, n+n/4+8)
	}
	return xs[:n]
}

// zeroed is sized with every element cleared.
func zeroed[T any](xs []T, n int) []T {
	xs = sized(xs, n)
	clear(xs)
	return xs
}

// run prunes from alive (indexed like qs) every query the cascade
// reaches and appends one PruneEvent per query to out, in pruning
// order. edges is the extended graph over qs; edges with a pruned
// endpoint do not count.
func (c *cascade) run(qs []eq.Query, edges []ExtendedEdge, alive []bool, out []PruneEvent) []PruneEvent {
	n := len(qs)
	c.off = sized(c.off, n+1)
	total := int32(0)
	for i, q := range qs {
		c.off[i] = total
		total += int32(len(q.Post))
	}
	c.off[n] = total

	// Count providers and group the edges by provider — a counting sort
	// on ToQ, with start filled two places ahead so that the placement
	// loop leaves start[t] at the beginning of t's group.
	c.count, c.start = zeroed(c.count, int(total)), zeroed(c.start, n+2)
	counted := func(e ExtendedEdge) bool { return alive[e.FromQ] && alive[e.ToQ] }
	kept := 0
	for _, e := range edges {
		if counted(e) {
			c.count[c.off[e.FromQ]+int32(e.PostIdx)]++
			c.start[e.ToQ+2]++
			kept++
		}
	}
	for t := 2; t < n+2; t++ {
		c.start[t] += c.start[t-1]
	}
	c.in = sized(c.in, kept)
	for ei, e := range edges {
		if counted(e) {
			c.in[c.start[e.ToQ+1]] = int32(ei)
			c.start[e.ToQ+1]++
		}
	}

	round, next := c.round[:0], c.next[:0]
	for i := range qs {
		if alive[i] && slices.Contains(c.count[c.off[i]:c.off[i+1]], 0) {
			round = append(round, int32(i))
		}
	}
	for len(round) > 0 {
		for _, q := range round {
			alive[q] = false
			out = append(out, PruneEvent{Query: int(q), Reason: "unsatisfiable postcondition"})
		}
		// Deaths take effect after the round: whoever they strand is
		// pruned in the next one.
		next = next[:0]
		for _, q := range round {
			for _, ei := range c.in[c.start[q]:c.start[q+1]] {
				e := edges[ei]
				k := c.off[e.FromQ] + int32(e.PostIdx)
				if c.count[k]--; c.count[k] == 0 && alive[e.FromQ] {
					next = append(next, int32(e.FromQ))
				}
			}
		}
		slices.Sort(next)
		round, next = slices.Compact(next), round
	}
	c.round, c.next = round, next
	return out
}
