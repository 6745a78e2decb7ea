package main

import (
	"context"
	"fmt"
	"math/rand"

	"entangled/internal/consistent"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/netgen"
	"entangled/internal/workload"
)

// consistent_inproc sizes.
const (
	// The Figure-8 point: all-wildcard users over a complete friendship
	// graph — the paper's declared worst case, nothing is ever pruned.
	fig8Users   = 25
	fig8Flights = 100
	// The pruning path: random constraints over a Barabási–Albert
	// friendship graph.
	randUsers   = 100
	randFlights = 1000
	randPairs   = 100
	randSets    = 8 // frozen random query sets, one per cycle slot
)

// consCase is one consistent.Coordinate input.
type consCase struct {
	sch  consistent.Schema
	inst *db.Instance
	qs   []consistent.Query
}

func buildConsistent(e env) (*instance, error) {
	in := &instance{}
	sch := workload.FlightSchema()

	worst := db.NewInstance()
	workload.FlightsTable(worst, fig8Flights, fig8Flights)
	workload.CompleteFriends(worst, fig8Users)
	fig8 := &consCase{sch: sch, inst: worst, qs: workload.FlightQueries(fig8Users)}

	shapes := rand.New(rand.NewSource(shapeSeed))
	pruned := db.NewInstance()
	workload.FlightsTable(pruned, randFlights, randPairs)
	workload.GraphFriends(pruned, netgen.BarabasiAlbert(randUsers, 3, shapes))
	sets := make([]*consCase, randSets)
	for i := range sets {
		sets[i] = &consCase{sch: sch, inst: pruned, qs: workload.RandomFlightQueries(randUsers, randPairs, 0.5, shapes)}
	}

	// The cycle alternates the worst case with each random set; the
	// seed picks where in the ring of sets the cycle starts.
	rot := e.rng(6).Intn(randSets)
	var script []op
	for i := range sets {
		script = append(script,
			op{kind: opConsistent, cons: fig8, n: 1},
			op{kind: opConsistent, cons: sets[(i+rot)%randSets], n: 1})
	}
	in.workers = []*worker{{script: script, exec: execConsistent}}
	in.verifyOp = func(ctx context.Context, w *worker, o *op) (outcome, error) {
		res, err := consistent.Coordinate(o.cons.sch, o.cons.qs, o.cons.inst, consistent.Options{})
		if err != nil {
			return outcome{}, err
		}
		if err := verifyConsistent(o.cons, res); err != nil {
			return outcome{}, err
		}
		return consistentOutcome(res), nil
	}
	in.check = func(context.Context) error { return nil }
	in.layers = &consistentLayers{script: script}
	return in, nil
}

func execConsistent(_ context.Context, o *op) (outcome, error) {
	res, err := consistent.Coordinate(o.cons.sch, o.cons.qs, o.cons.inst, consistent.Options{})
	if err != nil {
		return outcome{}, err
	}
	return consistentOutcome(res), nil
}

func consistentOutcome(res *consistent.Result) outcome {
	h := newHasher()
	if res == nil {
		h.str("nil")
		return outcome{digest: h.h}
	}
	for _, v := range res.Value {
		h.str(string(v))
	}
	for _, m := range res.Members {
		h.num(int64(m))
		h.str(string(res.Keys[m]))
	}
	h.num(res.DBQueries)
	return outcome{digest: h.h, dbq: res.DBQueries}
}

// verifyConsistent checks a §5 result the way the generic algorithms'
// results are checked: translate the queries into entangled form
// (consistent.ToEntangledSet), build the assignment the result implies —
// each member's own tuple, and for each partner slot a member it may
// coordinate with and that member's tuple — and run coord.Verify
// (Definition 1) on it.
func verifyConsistent(c *consCase, res *consistent.Result) error {
	if res == nil {
		return nil
	}
	eqs, err := consistent.ToEntangledSet(c.sch, c.qs, c.inst)
	if err != nil {
		return err
	}
	table, ok := c.inst.Relation(c.sch.Table)
	if !ok {
		return fmt.Errorf("relation %s missing", c.sch.Table)
	}
	byKey := map[eq.Value]db.Tuple{}
	for r := 0; r < table.Len(); r++ {
		t := table.Tuple(r)
		byKey[t[c.sch.KeyCol]] = t
	}
	memberOf := map[eq.Value]int{}
	for _, m := range res.Members {
		memberOf[c.qs[m].User] = m
	}
	values := map[int]map[string]eq.Value{}
	for _, m := range res.Members {
		// Which member fills each partner slot: the named user, or for a
		// friend slot a distinct member the friendship relation lists.
		partner := make([]int, len(c.qs[m].Partners))
		used := map[int]bool{m: true}
		for pi, p := range c.qs[m].Partners {
			partner[pi] = -1
			if !p.AnyFriend {
				if j, ok := memberOf[p.Name]; ok {
					partner[pi] = j
				}
				continue
			}
			for _, j := range res.Members {
				if !used[j] && c.inst.Contains(eq.NewAtom(c.sch.Friends, eq.C(c.qs[m].User), eq.C(c.qs[j].User))) {
					partner[pi], used[j] = j, true
					break
				}
			}
		}
		// Bind every variable of the translated query by matching its
		// body atoms against the chosen tuples, in the order
		// ToEntangled emits them: the member's own tuple atom, then per
		// partner slot the partner's tuple atom and, for a friend slot,
		// the friendship atom.
		bind := map[string]eq.Value{}
		match := func(a eq.Atom, tuple []eq.Value) {
			for k, t := range a.Args {
				if t.IsVar() {
					bind[t.Name] = tuple[k]
				}
			}
		}
		body := eqs[m].Body
		match(body[0], byKey[res.Keys[m]])
		at := 1
		for pi, p := range c.qs[m].Partners {
			j := partner[pi]
			if j < 0 {
				return fmt.Errorf("member %s: no member fills partner slot %d", c.qs[m].User, pi)
			}
			match(body[at], byKey[res.Keys[j]])
			at++
			if p.AnyFriend {
				match(body[at], []eq.Value{c.qs[m].User, c.qs[j].User})
				at++
			}
		}
		values[m] = bind
	}
	return coord.Verify(eqs, res.Members, values, c.inst)
}
