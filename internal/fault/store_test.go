package fault

import (
	"context"
	"errors"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// countedQueries calls each of the four counted queries on one body,
// by the descriptor a guard checks it under.
var countedQueries = []struct {
	descriptor string
	call       func(db.Store) error
}{
	{"solve", func(s db.Store) error { _, _, err := s.Solve(queryBody); return err }},
	{"solveall", func(s db.Store) error { _, err := s.SolveAll(queryBody, 0); return err }},
	{"satisfiable", func(s db.Store) error { _, err := s.Satisfiable(queryBody); return err }},
	{"solveunder", func(s db.Store) error { _, _, err := s.SolveUnder(queryBody, nil); return err }},
}

var queryBody = []eq.Atom{eq.NewAtom("R", eq.V("x"))}

// TestGuardsCheckEveryCountedQuery runs each of the four counted
// queries through both guards, the context one and the injector one:
// an open guard lets the query reach the inner store, a shut one fails
// it with the check's error and leaves the inner store's counter where
// it was. A method that skipped its check would reach the store.
func TestGuardsCheckEveryCountedQuery(t *testing.T) {
	boom := errors.New("backend down")
	guards := []struct {
		name string
		// guard returns an open guard over inner and a func that shuts
		// it for the query with this descriptor.
		guard func(inner db.Store, descriptor string) (db.Store, func())
		is    func(error) bool
	}{
		{"context", func(inner db.Store, _ string) (db.Store, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			return db.WithContext(ctx, inner), cancel
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"injector", func(inner db.Store, descriptor string) (db.Store, func()) {
			inj := NewInjector(1)
			return NewStore(inner, inj), func() {
				inj.Add(Rule{Op: OpQuery, Path: descriptor, Fault: Fault{Err: boom}})
			}
		}, func(err error) bool { return errors.Is(err, boom) && errors.Is(err, ErrInjected) }},
	}
	for _, g := range guards {
		for _, q := range countedQueries {
			inner := db.NewInstance()
			inner.CreateRelation("R", "a").Insert("v")
			s, shut := g.guard(inner, q.descriptor)
			if err := q.call(s); err != nil || inner.QueriesIssued() != 1 {
				t.Fatalf("%s guard, open, %s: err %v, inner issued %d, want nil and 1", g.name, q.descriptor, err, inner.QueriesIssued())
			}
			shut()
			if err := q.call(s); !g.is(err) {
				t.Errorf("%s guard, shut, %s: err %v, want the check's error", g.name, q.descriptor, err)
			}
			if n := inner.QueriesIssued(); n != 1 {
				t.Errorf("%s guard, shut, %s: inner issued %d, want 1 (the store untouched)", g.name, q.descriptor, n)
			}
		}
	}
}

// TestQueryRuleMatchesOneDescriptor: the query descriptors nest —
// "solve" is in "solveall" and "solveunder" — so a query rule's Path
// names one descriptor exactly. A rule for each query fails that query
// alone, and the other three reach the store.
func TestQueryRuleMatchesOneDescriptor(t *testing.T) {
	boom := errors.New("backend down")
	for _, shut := range countedQueries {
		inner := db.NewInstance()
		inner.CreateRelation("R", "a").Insert("v")
		s := NewStore(inner, NewInjector(1, Rule{Op: OpQuery, Path: shut.descriptor, Fault: Fault{Err: boom}}))
		for _, q := range countedQueries {
			if err := q.call(s); errors.Is(err, boom) != (q.descriptor == shut.descriptor) {
				t.Errorf("a rule for %q, %s: err %v", shut.descriptor, q.descriptor, err)
			}
		}
		if n := inner.QueriesIssued(); n != int64(len(countedQueries)-1) {
			t.Errorf("a rule for %q: the store answered %d queries, want %d", shut.descriptor, n, len(countedQueries)-1)
		}
	}
}
