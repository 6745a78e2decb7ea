package coord

import (
	"errors"
	"fmt"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// ErrNotSingleConnected is returned when the input violates Definition 6.
var ErrNotSingleConnected = errors.New("coord: query set is not single-connected")

// IsSingleConnected checks Definition 6: every query has at most one
// postcondition atom, and the coordination graph has at most one simple
// path between every (ordered) pair of queries.
func IsSingleConnected(qs []eq.Query) bool {
	for _, q := range qs {
		if len(q.Post) > 1 {
			return false
		}
	}
	g := CoordinationGraph(qs)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if g.CountSimplePaths(u, v, 2) > 1 {
				return false
			}
		}
	}
	return true
}

// SingleConnectedCoordinate solves Entangled for single-connected query
// sets (Theorem 3). The paper states the theorem without an algorithm;
// this is our reconstruction. Each query has at most one postcondition,
// so a coordinating set containing q is a chain of provider choices
// starting at q (possibly closing into a cycle); the single-simple-path
// property keeps provider chains from constraining one another through
// multiple routes, so a depth-first search over provider choices with
// one combined conjunctive query per attempted chain extension decides
// each query in turn. On single-connected inputs the number of database
// queries issued is bounded by the number of extended-graph edges plus
// |Q| (each of linear size), matching the theorem's bound.
//
// The returned result is the largest coordinating set found over all
// starting queries, or nil when none exists.
func SingleConnectedCoordinate(qs []eq.Query, store db.Store) (*Result, error) {
	for _, q := range qs {
		if len(q.Post) > 1 {
			return nil, fmt.Errorf("%w: query %s has %d postconditions", ErrNotSingleConnected, q.ID, len(q.Post))
		}
	}
	meter := db.NewMeter(store)
	vars, sr := numberAll(qs), &search{}
	sr.number(qs, vars, every(len(qs)))
	root := sr.subst
	edges := ExtendedGraph(qs)
	// Provider candidates for each query's single postcondition.
	cands := make([][]ExtendedEdge, len(qs))
	for _, e := range edges {
		cands[e.FromQ] = append(cands[e.FromQ], e)
	}

	type state struct {
		set  []int
		s    *unify.Subst
		bind db.Binding
	}
	var best *state
	// ground asks the database, once, for the combined body of set
	// under s.
	ground := func(set []int, s *unify.Subst) (*state, error) {
		sr.subst = s
		bind, ok, err := meter.SolveUnder(sr.combine(qs, vars, set), s)
		if err != nil || !ok {
			return nil, err
		}
		return &state{append([]int(nil), set...), s, bind}, nil
	}

	// grow attempts to extend the chain rooted at the original start
	// query by satisfying query cur's postcondition; inChain guards
	// against revisiting (closing a cycle is handled explicitly).
	var grow func(cur int, set []int, inChain map[int]bool, s *unify.Subst) (*state, error)
	grow = func(cur int, set []int, inChain map[int]bool, s *unify.Subst) (*state, error) {
		if len(qs[cur].Post) == 0 {
			return ground(set, s) // chain complete
		}
		for _, e := range cands[cur] {
			s2 := s.Clone()
			if sr.subst = s2; !sr.unify(qs, vars, e) {
				continue
			}
			if inChain[e.ToQ] {
				// The chain closes into a cycle: every postcondition in
				// the chain is now provided for; ground the whole chain.
				if st, err := ground(set, s2); err != nil || st != nil {
					return st, err
				}
				continue
			}
			inChain[e.ToQ] = true
			res, err := grow(e.ToQ, append(set, e.ToQ), inChain, s2)
			delete(inChain, e.ToQ)
			if err != nil {
				return nil, err
			}
			if res != nil {
				return res, nil
			}
		}
		return nil, nil
	}

	for i := range qs {
		st, err := grow(i, []int{i}, map[int]bool{i: true}, root)
		if err != nil {
			return nil, err
		}
		if st != nil && (best == nil || len(st.set) > len(best.set)) {
			best = st
		}
	}
	if best == nil {
		return nil, nil
	}
	sr.subst = best.s
	return finishResult(qs, vars, sr, best.set, best.bind, meter)
}
