// Package dbtest holds the reference evaluator that the equivalence
// property tests compare compiled plans against. It is a db.Store
// written only against db's exported read API — Relation, Len, Tuple,
// RelationNames, Shard — so it shares no locks, indexes, shard routing
// or plan code with what it checks, and no binary links it (CI asserts
// that with `go list -deps`).
package dbtest

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync/atomic"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// Oracle answers conjunctive queries by nested loops, in body order,
// over every tuple of every part. It reads the instances it was built
// over on every call, so it tracks their writes, but it must not run
// concurrently with them.
type Oracle struct {
	parts   []*db.Instance
	queries atomic.Int64
}

var _ db.Store = (*Oracle)(nil)

// New returns an oracle over one instance.
func New(in *db.Instance) *Oracle { return &Oracle{parts: []*db.Instance{in}} }

// NewSharded returns an oracle over the union of sh's shards; it scans
// every shard and never consults the placement hash.
func NewSharded(sh *db.ShardedInstance) *Oracle {
	o := &Oracle{}
	for i := 0; i < sh.NumShards(); i++ {
		o.parts = append(o.parts, sh.Shard(i))
	}
	return o
}

// rows returns every tuple a's relation holds, across all parts.
func (o *Oracle) rows(a eq.Atom) ([]db.Tuple, error) {
	var out []db.Tuple
	for _, p := range o.parts {
		r, ok := p.Relation(a.Rel)
		if !ok {
			return nil, fmt.Errorf("%w: unknown relation %s", db.ErrSchema, a.Rel)
		}
		if r.Arity() != len(a.Args) {
			return nil, fmt.Errorf("%w: atom %s has arity %d, relation has %d", db.ErrSchema, a, len(a.Args), r.Arity())
		}
		for i := 0; i < r.Len(); i++ {
			out = append(out, r.Tuple(i))
		}
	}
	return out, nil
}

func (o *Oracle) solve(body []eq.Atom, limit int) ([]db.Binding, error) {
	o.queries.Add(1)
	rows := make([][]db.Tuple, len(body))
	for i, a := range body {
		var err error
		if rows[i], err = o.rows(a); err != nil {
			return nil, err
		}
	}
	var out []db.Binding
	var join func(i int, names []string, vals []eq.Value)
	join = func(i int, names []string, vals []eq.Value) {
		if i == len(body) {
			out = append(out, db.ValuesOf(vals...))
			return
		}
		for _, t := range rows[i] {
			if n, v, ok := match(body[i], t, names, vals); ok && (limit <= 0 || len(out) < limit) {
				join(i+1, n, v)
			}
		}
	}
	join(0, nil, nil)
	return out, nil
}

// match extends a binding so that atom a equals tuple t: names and
// vals hold the variables bound so far and their values, in order of
// first occurrence — a binding's slots. What it returns shares nothing
// it can write with what it was given.
func match(a eq.Atom, t db.Tuple, names []string, vals []eq.Value) ([]string, []eq.Value, bool) {
	names, vals = slices.Clip(names), slices.Clip(vals)
	for i, arg := range a.Args {
		want, known := eq.Value(arg.Name), true
		if arg.IsVar() {
			j := slices.Index(names, arg.Name)
			if known = j >= 0; known {
				want = vals[j]
			}
		}
		if !known {
			names, vals = append(names, arg.Name), append(vals, t[i])
		} else if want != t[i] {
			return nil, nil, false
		}
	}
	return names, vals, true
}

// solveOne answers body under choose-1 semantics; with no answer, its
// binding names the first atom that shares no variable with another
// and matches no row (db.Binding.Empty).
func (o *Oracle) solveOne(body []eq.Atom) (db.Binding, bool, error) {
	res, err := o.solve(body, 1)
	switch {
	case err != nil:
		return db.Binding{}, false, err
	case len(res) > 0:
		return res[0], true, nil
	}
	for i, a := range body {
		others := slices.Concat(body[:i], body[i+1:])
		if !slices.ContainsFunc(a.Args, func(t eq.Term) bool {
			return t.IsVar() && slices.ContainsFunc(others, func(b eq.Atom) bool { return slices.Contains(b.Args, t) })
		}) && !o.matches(a) {
			return db.EmptyAt(i), false, nil
		}
	}
	return db.Binding{}, false, nil
}

// matches reports whether some row equals a on its constants and
// repeated variables.
func (o *Oracle) matches(a eq.Atom) bool {
	rows, _ := o.rows(a)
	return slices.ContainsFunc(rows, func(t db.Tuple) bool {
		_, _, ok := match(a, t, nil, nil)
		return ok
	})
}

func (o *Oracle) Solve(body []eq.Atom) (db.Binding, bool, error) { return o.solveOne(body) }

func (o *Oracle) SolveAll(body []eq.Atom, limit int) ([]db.Binding, error) {
	return o.solve(body, limit)
}

func (o *Oracle) Satisfiable(body []eq.Atom) (bool, error) {
	res, err := o.solve(body, 1)
	return len(res) > 0, err
}

// SolveUnder answers the body resolved under s: slot i is Resolve's
// variable _i.
func (o *Oracle) SolveUnder(body []eq.Atom, s *unify.Subst) (db.Binding, bool, error) {
	return o.solveOne(Resolve(body, s))
}

// Resolve returns body resolved under s (unify.Subst.Resolve), each
// unbound class a variable named _0, _1, ... by first occurrence — the
// order of a binding's slots.
func Resolve(body []eq.Atom, s *unify.Subst) []eq.Atom {
	classes := map[int32]int{}
	return s.Resolve(body, func(rep int32) string {
		if _, seen := classes[rep]; !seen {
			classes[rep] = len(classes)
		}
		return "_" + strconv.Itoa(classes[rep])
	})
}

// Contains scans for the ground atom; like db.Instance.Contains it is
// free, and atoms with variables or over unknown relations are not
// contained.
func (o *Oracle) Contains(a eq.Atom) bool {
	return !slices.ContainsFunc(a.Args, eq.Term.IsVar) && o.matches(a)
}

func (o *Oracle) Domain() []eq.Value {
	seen := map[eq.Value]bool{}
	for _, p := range o.parts {
		for _, name := range p.RelationNames() {
			r, _ := p.Relation(name)
			for i := 0; i < r.Len(); i++ {
				for _, v := range r.Tuple(i) {
					seen[v] = true
				}
			}
		}
	}
	return slices.Sorted(maps.Keys(seen))
}

func (o *Oracle) QueriesIssued() int64 { return o.queries.Load() }

func (o *Oracle) ResetCounters() { o.queries.Store(0) }
