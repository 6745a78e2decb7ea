package consistent

import (
	"fmt"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// Pref is a per-attribute preference: a required constant or "don't
// care".
type Pref struct {
	Any bool
	Val eq.Value
}

// Is builds a constant preference.
func Is(v eq.Value) Pref { return Pref{Val: v} }

// DontCare is the wildcard preference.
var DontCare = Pref{Any: true}

// String renders the preference.
func (p Pref) String() string {
	if p.Any {
		return "*"
	}
	return string(p.Val)
}

// Partner is one coordination-partner slot of a query: either a named
// user (constant) or any friend of the submitting user per the
// friendship relation.
type Partner struct {
	AnyFriend bool
	Name      eq.Value // used when !AnyFriend
	// Rel optionally names the binary relation the friend slot draws
	// from; empty means Schema.Friends. The paper's Discussion notes
	// that partners may come from more than one relation ("colleagues",
	// "family", ...) with extra conditions in the cleaning step.
	Rel string
}

// Friend is the wildcard partner slot over the default friendship
// relation.
var Friend = Partner{AnyFriend: true}

// With builds a constant partner slot.
func With(name eq.Value) Partner { return Partner{Name: name} }

// Query is one user's A-consistent coordination request.
type Query struct {
	// User is the submitting user's name (also the head's second
	// component in the entangled-query form).
	User eq.Value
	// Coord holds one preference per coordination attribute, in the
	// order of Schema.CoordCols. By A-consistency these constraints are
	// shared between the user and every partner.
	Coord []Pref
	// Own holds one preference per non-coordination attribute, in the
	// order of Schema.OwnCols; they constrain only the user's own tuple
	// (A-non-coordination forbids constraining partners here).
	Own []Pref
	// Partners lists the coordination-partner slots. Each constant
	// partner must be in the coordinating set; the AnyFriend slots
	// require at least that many distinct friends in the set (the k=1
	// case is the paper's f1; larger k is the "coordinate with k
	// friends" generalization of §5's Discussion).
	Partners []Partner
}

// Schema describes the application: which relation users coordinate
// over, which of its columns form the coordination attribute set A, and
// where friendships live.
type Schema struct {
	Table     string // data relation S
	KeyCol    int    // key column of S
	CoordCols []int  // the coordination attributes A (columns of S)
	OwnCols   []int  // columns constrainable per-user (disjoint from CoordCols and KeyCol)
	Friends   string // binary friendship relation F(user, friend)
}

// Validate performs structural checks of the schema against an
// instance: the data relation exists, KeyCol, CoordCols and OwnCols are
// columns of it and name no column twice, and the friendship relation is
// binary.
func (sch Schema) Validate(inst *db.Instance) error {
	s, ok := inst.Relation(sch.Table)
	if !ok {
		return fmt.Errorf("consistent: relation %s not in instance", sch.Table)
	}
	used := make([]bool, s.Arity())
	for _, cols := range [][]int{{sch.KeyCol}, sch.CoordCols, sch.OwnCols} {
		for _, col := range cols {
			if col < 0 || col >= s.Arity() {
				return fmt.Errorf("consistent: column %d out of range for %s", col, sch.Table)
			}
			if used[col] {
				return fmt.Errorf("consistent: column %d of %s is named twice among KeyCol, CoordCols and OwnCols", col, sch.Table)
			}
			used[col] = true
		}
	}
	return checkFriendRel(inst, sch.Friends)
}

// checkFriendRel checks that rel can fill friend slots: it exists and is
// binary.
func checkFriendRel(inst *db.Instance, rel string) error {
	f, ok := inst.Relation(rel)
	if !ok {
		return fmt.Errorf("consistent: friendship relation %s not in instance", rel)
	}
	if f.Arity() != 2 {
		return fmt.Errorf("consistent: friendship relation %s must be binary", rel)
	}
	return nil
}

// checkPrefs checks that q has one preference per coordination and per
// own attribute of the schema.
func checkPrefs(sch Schema, q Query) error {
	if len(q.Coord) != len(sch.CoordCols) {
		return fmt.Errorf("consistent: query by %s has %d coordination prefs, schema has %d attributes", q.User, len(q.Coord), len(sch.CoordCols))
	}
	if len(q.Own) != len(sch.OwnCols) {
		return fmt.Errorf("consistent: query by %s has %d own prefs, schema has %d attributes", q.User, len(q.Own), len(sch.OwnCols))
	}
	return nil
}

// Candidate is one value of the coordination attributes together with
// the queries that survive the cleaning phase for it. Both slices are
// read-only views of what the call allocates for its answer and nothing
// else: Value of one slab of the candidates' values, Members of one slab
// holding each distinct team once, so candidates with equal teams share
// one Members slice. No later call reuses them. The Result's Value and
// Members are the winning candidate's.
type Candidate struct {
	Value   []eq.Value // one value per coordination attribute
	Members []int      // surviving query indices, sorted
}

// maxMembers picks the winning candidate: the one with the most
// members, the first on ties.
func maxMembers(cands []Candidate) int {
	best := 0
	for i, c := range cands {
		if len(c.Members) > len(cands[best].Members) {
			best = i
		}
	}
	return best
}

// Result is the algorithm's output.
type Result struct {
	// Value is the agreed value of the coordination attributes and
	// Members the indices of the coordinating queries, sorted: the
	// selected candidate's, and read-only like them. Members is the one
	// slice every candidate with the winning team shares.
	Value   []eq.Value
	Members []int
	// Keys maps each member to the key of its selected tuple of S (the
	// paper's final output: user -> flight number).
	Keys map[int]eq.Value
	// Candidates holds every non-empty candidate discovered, for a
	// caller that applies its own criterion — the paper's gold-status
	// passengers or VIP clients — instead of the largest.
	Candidates []Candidate
	// DBQueries is the number of database queries this call issued,
	// counted by the call itself: exact whatever else the instance is
	// serving meanwhile.
	DBQueries int64
}

// Options configures Coordinate.
type Options struct {
	// Trace, when non-nil, records the algorithm's steps (option-list
	// sizes and per-value cleaning outcomes).
	Trace *Trace
}

// Trace records a Coordinate run for debugging and explanation.
type Trace struct {
	// OptionCounts[i] is |V(q_i)|, the number of candidate values for
	// query i (0 means the query was pruned before the value loop).
	OptionCounts []int
	// Values holds one event per candidate value examined.
	Values []ValueEvent
}

// ValueEvent is the outcome of the restrict+clean step for one value.
type ValueEvent struct {
	Value     []eq.Value
	Initial   []int // queries whose option lists contain the value
	Survivors []int // queries left after the cleaning phase
}

// Coordinate runs the Consistent Coordination Algorithm. It returns the
// selected coordinating set or nil when none exists.
//
// Everything about the input that can be wrong — the schema, a query's
// preference counts, the relation a friend slot names — is reported
// before the first database query is spent.
//
// The call asks one question per distinct (Coord, Own) preference
// vector among qs, all in one database query (a db.Project batch), and
// one per friend list of a query with an option (a query and a relation
// its friend slots draw from), in one database query per relation, and
// no other: two on a set whose friend slots draw from one relation. A
// nil result reports no DBQueries, though it spent at most one query
// per step all the same; only the instance's own counter sees them.
func Coordinate(sch Schema, qs []Query, inst *db.Instance, opts Options) (*Result, error) {
	if err := sch.Validate(inst); err != nil {
		return nil, err
	}
	if len(qs) == 0 {
		return nil, nil
	}
	k := kernels.Get().(*kernel)
	defer k.release()
	if err := k.load(sch, qs, inst); err != nil {
		return nil, err
	}

	// Steps 1 and 3: option lists V(q) — one database query, asking once
	// per distinct preference vector — interned into the global options
	// list V(Q).
	if err := k.optionLists(); err != nil {
		return nil, err
	}
	if opts.Trace != nil {
		opts.Trace.OptionCounts = make([]int, len(qs))
		for i := range qs {
			opts.Trace.OptionCounts[i] = len(k.options.at(int32(i)))
		}
	}

	// Step 2: pruned coordination graph. Nodes are queries with a
	// non-empty option list; edges follow constant partners and
	// friendships (one database query per relation, asking one friend
	// list per alive query).
	if err := k.friendLists(); err != nil {
		return nil, err
	}

	// Step 4: per value, restrict and clean.
	cands := k.candidates(opts.Trace)
	if len(cands) == 0 {
		return nil, nil
	}
	best := maxMembers(cands)
	win := cands[best]

	// Step 5: ground each member to a concrete tuple key, read off the
	// rows step 1 yielded.
	return &Result{
		Value:      win.Value,
		Members:    win.Members,
		Keys:       k.ground(k.keptValue[best], win.Members),
		Candidates: cands,
		DBQueries:  k.dbq,
	}, nil
}
