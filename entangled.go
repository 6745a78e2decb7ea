// Package entangled is a Go implementation of entangled-query
// evaluation for data-driven social coordination, reproducing
// "The Complexity of Social Coordination" (Mamouras, Oren, Seeman, Kot,
// Gehrke; PVLDB 5(11), 2012).
//
// An entangled query {P} H :- B augments a conjunctive query (head H,
// body B) with postconditions P that reference other users' answers:
// "book me on the same flight as Chris". Evaluating a set of such
// queries means finding a coordinating set — a subset whose answers
// jointly satisfy every member's postconditions (Definition 1 of the
// paper).
//
// The package re-exports the paper's algorithms and the model they
// need, and nothing else:
//
//   - the query model and parser (internal/eq) and the in-memory
//     database it is evaluated against (internal/db),
//   - the SCC Coordination Algorithm for safe but non-unique sets (§4),
//   - the Consistent Coordination Algorithm for unsafe, A-consistent
//     sets (§5), and
//   - the online coordination module (§6.1, internal/system).
//
// The coordination service built around them — sharded stores, the
// serving engine, the write-ahead log, the HTTP and binary server, its
// client and the cluster router — is not part of this surface: programs
// in this module import those packages from internal/ directly, so a
// program that only coordinates links none of them.
//
// See README.md for a tour and examples/ for runnable programs.
package entangled

import (
	"entangled/internal/consistent"
	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/system"
)

// Core model types, re-exported.
type (
	// Value is a constant from the database domain.
	Value = eq.Value
	// Term is an atom argument: a variable or a constant.
	Term = eq.Term
	// Atom is a relational atom R(t1, ..., tn).
	Atom = eq.Atom
	// Query is an entangled query {Post} Head :- Body.
	Query = eq.Query

	// Instance is an in-memory relational database.
	Instance = db.Instance
	// Store is the conjunctive-query read surface every coordination
	// algorithm evaluates against; *Instance implements it.
	Store = db.Store

	// Result is a coordinating set with its witnessing assignment.
	Result = coord.Result
	// Options configures Coordinate.
	Options = coord.Options

	// ConsistentQuery is one user's A-consistent coordination request
	// for the application-specific algorithm of §5.
	ConsistentQuery = consistent.Query
	// ConsistentSchema describes the coordination application: the data
	// relation, the coordination attribute set A, and the friendship
	// relation.
	ConsistentSchema = consistent.Schema
	// ConsistentResult is the §5 algorithm's output.
	ConsistentResult = consistent.Result
	// Pref is a per-attribute preference (constant or wildcard).
	Pref = consistent.Pref
	// Partner is a coordination-partner slot.
	Partner = consistent.Partner

	// Coordinator is the online coordination module of §6.1.
	Coordinator = system.Coordinator
	// Outcome reports what an online submission achieved.
	Outcome = system.Outcome
)

// C builds a constant term.
func C(v Value) Term { return eq.C(v) }

// V builds a variable term.
func V(name string) Term { return eq.V(name) }

// NewAtom builds an atom over relation rel.
func NewAtom(rel string, args ...Term) Atom { return eq.NewAtom(rel, args...) }

// Parse parses one entangled query from the textual format of the eq
// package.
func Parse(src string) (Query, error) { return eq.Parse(src) }

// ParseSet parses a whole query set.
func ParseSet(src string) ([]Query, error) { return eq.ParseSet(src) }

// NewInstance creates an empty database instance.
func NewInstance() *Instance { return db.NewInstance() }

// Coordinate runs the SCC Coordination Algorithm (§4) on a safe set of
// entangled queries: it finds a coordinating set whenever one exists and
// returns the largest one among the reachable-set candidates (nil when
// none exists). The returned Result.DBQueries is exact for this run
// even when the store serves concurrent traffic.
func Coordinate(qs []Query, store Store, opts Options) (*Result, error) {
	return coord.SCCCoordinate(qs, store, opts)
}

// CoordinateConsistent runs the Consistent Coordination Algorithm (§5)
// for A-consistent query sets, which handles unsafe sets as long as all
// users coordinate on the same attributes.
func CoordinateConsistent(sch ConsistentSchema, qs []ConsistentQuery, inst *Instance, opts consistent.Options) (*ConsistentResult, error) {
	return consistent.Coordinate(sch, qs, inst, opts)
}

// Verify checks a coordinating set against Definition 1 of the paper.
func Verify(qs []Query, set []int, values map[int]map[string]Value, store Store) error {
	return coord.Verify(qs, set, values, store)
}

// IsSafe reports whether every query's postconditions have at most one
// potential provider (Definition 2).
func IsSafe(qs []Query) bool { return coord.IsSafe(qs) }

// IsUnique reports whether a safe set's coordination graph is strongly
// connected (Definition 3).
func IsUnique(qs []Query) bool { return coord.IsUnique(qs) }

// NewCoordinator creates the online coordination module over inst.
func NewCoordinator(inst *Instance) *Coordinator {
	return system.New(inst)
}

// AllCandidates exposes every coordinating set the SCC algorithm
// discovers (the family {R(q)}), largest first. Coordinate returns the
// largest; a caller with its own criterion — the paper's examples
// prefer gold-status passengers or VIP clients — chooses here instead.
func AllCandidates(qs []Query, inst *Instance, opts Options) ([]coord.CandidateSet, error) {
	return coord.AllCandidates(qs, inst, opts)
}

// Trace re-exports the SCC algorithm's step-by-step record; pass a
// fresh &Trace{} in Options.Trace and render it with its Render method.
type Trace = coord.Trace
