package coord

import (
	"errors"
	"fmt"
	"math/bits"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// MaxBruteQueries bounds the brute-force oracles: subset enumeration is
// exponential, and the 2^20 ceiling keeps a worst-case run within a
// testing-oracle budget.
const MaxBruteQueries = 20

// ErrTooManyQueries is returned by the brute-force oracles when the
// query set exceeds MaxBruteQueries. Callers should fall back to the
// polynomial SCC algorithm (for safe sets) or shrink the input.
var ErrTooManyQueries = errors.New("coord: brute force limited to " +
	fmt.Sprint(MaxBruteQueries) + " queries")

// BruteForceExists decides Entangled(Q): does any non-empty coordinating
// subset of qs exist over inst? Exponential; intended as a testing
// oracle on small instances (the hardness reductions of §3). Query sets
// larger than MaxBruteQueries yield ErrTooManyQueries.
func BruteForceExists(qs []eq.Query, store db.Store) (bool, error) {
	r, err := bruteForce(qs, store, true)
	if err != nil {
		return false, err
	}
	return r != nil, nil
}

// BruteForceMax solves EntangledMax(Q) exactly: it returns a coordinating
// set of maximum size (with witnessing assignment), or nil when no
// coordinating set exists. Exponential in |qs|; use only on small
// instances. Query sets larger than MaxBruteQueries yield
// ErrTooManyQueries.
func BruteForceMax(qs []eq.Query, store db.Store) (*Result, error) {
	return bruteForce(qs, store, false)
}

// bruteForce enumerates subsets grouped by size — descending for the
// maximisation problem (first hit is a maximum set), ascending for the
// existence problem (small sets are cheaper to refute or confirm).
func bruteForce(qs []eq.Query, store db.Store, smallestFirst bool) (*Result, error) {
	n := len(qs)
	if n == 0 {
		return nil, nil
	}
	if n > MaxBruteQueries {
		return nil, fmt.Errorf("%w (got %d)", ErrTooManyQueries, n)
	}
	meter := db.NewMeter(store)
	vars, sr := numberAll(qs), &search{}
	sr.number(qs, vars, every(n))
	root := sr.subst
	providers := providerEdges(qs)

	masks := masksBySize(n)
	for i := range n {
		size := n - i
		if smallestFirst {
			size = i + 1
		}
		for _, m := range masks[size] {
			set := maskSet(m)
			s, bind, ok, err := trySubset(qs, vars, sr, root, set, providers, meter)
			if err != nil {
				return nil, err
			}
			if ok {
				sr.subst = s
				return finishResult(qs, vars, sr, set, bind, meter)
			}
		}
	}
	return nil, nil
}

// every returns 0, 1, ..., n-1.
func every(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// trySubset decides whether the given subset coordinates: it searches
// over the choice of provider head for every postcondition (all heads
// must come from within the subset), accumulating the unifier from
// root, then grounds the combined body.
func trySubset(qs []eq.Query, vars []varTable, sr *search, root *unify.Subst, set []int, providers map[[2]int][]ExtendedEdge, store db.Store) (*unify.Subst, db.Binding, bool, error) {
	inSet := map[int]bool{}
	for _, i := range set {
		inSet[i] = true
	}
	// Collect the posts to satisfy and each one's in-subset providers.
	type need struct {
		q, p  int
		cands []ExtendedEdge
	}
	var needs []need
	for _, i := range set {
		for pi := range qs[i].Post {
			var cs []ExtendedEdge
			for _, e := range providers[[2]int{i, pi}] {
				if inSet[e.ToQ] {
					cs = append(cs, e)
				}
			}
			if len(cs) == 0 {
				return nil, db.Binding{}, false, nil // unsatisfiable postcondition
			}
			needs = append(needs, need{i, pi, cs})
		}
	}
	var solve func(k int, s *unify.Subst) (*unify.Subst, db.Binding, bool, error)
	solve = func(k int, s *unify.Subst) (*unify.Subst, db.Binding, bool, error) {
		if k == len(needs) {
			sr.subst = s
			bind, found, err := store.SolveUnder(sr.combine(qs, vars, set), s)
			if err != nil || !found {
				return nil, db.Binding{}, false, err
			}
			return s, bind, true, nil
		}
		nd := needs[k]
		for _, e := range nd.cands {
			s2 := s.Clone()
			if sr.subst = s2; !sr.unify(qs, vars, e) {
				continue
			}
			rs, rb, ok, err := solve(k+1, s2)
			if err != nil {
				return nil, db.Binding{}, false, err
			}
			if ok {
				return rs, rb, true, nil
			}
		}
		return nil, db.Binding{}, false, nil
	}
	return solve(0, root)
}

// providerEdges groups the extended graph's edges by (query, post-atom):
// which heads can provide each postcondition.
func providerEdges(qs []eq.Query) map[[2]int][]ExtendedEdge {
	providers := map[[2]int][]ExtendedEdge{}
	for _, e := range ExtendedGraph(qs) {
		k := [2]int{e.FromQ, e.PostIdx}
		providers[k] = append(providers[k], e)
	}
	return providers
}

// masksBySize buckets every non-empty subset mask of {0..n-1} by its
// popcount.
func masksBySize(n int) [][]uint32 {
	masks := make([][]uint32, n+1)
	for m := uint32(1); m < 1<<n; m++ {
		pc := bits.OnesCount32(m)
		masks[pc] = append(masks[pc], m)
	}
	return masks
}

func maskSet(m uint32) []int {
	var out []int
	for i := 0; m != 0; i++ {
		if m&1 == 1 {
			out = append(out, i)
		}
		m >>= 1
	}
	return out
}
