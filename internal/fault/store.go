package fault

import (
	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/unify"
)

// NewStore wraps a db.Store so each counted query consults the
// injector under the OpQuery kind (descriptor = method name). An
// injected error surfaces mid-plan exactly where a failed backend
// query would; an injected delay models a stalled backend for the
// context-deadline path to cut short.
func NewStore(inner db.Store, inj *Injector) db.Store {
	return &faultStore{inner: inner, inj: inj}
}

type faultStore struct {
	inner db.Store
	inj   *Injector
}

var _ db.Store = (*faultStore)(nil)

func (s *faultStore) Solve(body []eq.Atom) (db.Binding, bool, error) {
	if err := injected(s.inj.Decide(OpQuery, "solve"), OpQuery, "solve"); err != nil {
		return db.Binding{}, false, err
	}
	return s.inner.Solve(body)
}

func (s *faultStore) SolveAll(body []eq.Atom, limit int) ([]db.Binding, error) {
	if err := injected(s.inj.Decide(OpQuery, "solveall"), OpQuery, "solveall"); err != nil {
		return nil, err
	}
	return s.inner.SolveAll(body, limit)
}

func (s *faultStore) Satisfiable(body []eq.Atom) (bool, error) {
	if err := injected(s.inj.Decide(OpQuery, "satisfiable"), OpQuery, "satisfiable"); err != nil {
		return false, err
	}
	return s.inner.Satisfiable(body)
}

func (s *faultStore) SolveUnder(body []eq.Atom, sub *unify.Subst) (db.Binding, bool, error) {
	if err := injected(s.inj.Decide(OpQuery, "solveunder"), OpQuery, "solveunder"); err != nil {
		return db.Binding{}, false, err
	}
	return s.inner.SolveUnder(body, sub)
}

func (s *faultStore) Contains(a eq.Atom) bool { return s.inner.Contains(a) }
func (s *faultStore) Domain() []eq.Value      { return s.inner.Domain() }
func (s *faultStore) QueriesIssued() int64    { return s.inner.QueriesIssued() }
func (s *faultStore) ResetCounters()          { s.inner.ResetCounters() }
