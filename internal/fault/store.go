package fault

import "entangled/internal/db"

// NewStore guards a db.Store (db.Guard) so each counted query consults
// the injector under OpQuery, its path the query's descriptor ("solve",
// "solveall", "satisfiable", "solveunder"). An injected error surfaces
// mid-plan where a failed backend query would; an injected delay models
// a stalled backend for the context-deadline path to cut short.
func NewStore(inner db.Store, inj *Injector) db.Store {
	return db.Guard(inner, queryCheck{inj})
}

type queryCheck struct{ inj *Injector }

func (q queryCheck) Check(descriptor string) error {
	return injected(q.inj.Decide(OpQuery, descriptor), OpQuery, descriptor)
}
