package db

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"entangled/internal/eq"
	"entangled/internal/unify"
)

// This file implements compiled query plans: the join strategy for a
// conjunctive body is derived once per body *shape* and reused across
// every query that shares the shape, instead of being re-derived inside
// the backtracking loop of every call (re-scoring every remaining atom
// at every search node was the single hottest function in the
// coordination profiles).
//
// A shape abstracts the parts of a body that do not affect strategy:
// constants are reduced to a placeholder (their values only matter at
// execution time) and variables are numbered by first occurrence (their
// names only matter at the API boundary). Everything a backtracking
// join looks up dynamically is frozen into the plan:
//
//   - the atom join order, chosen greedily (most bound arguments first,
//     ties to the smaller relation);
//   - an integer slot for every variable, so the hot loop runs over a
//     []eq.Value frame with no map operations and no per-match
//     newVars allocations — a slot is written by the step that first
//     binds it and only ever read by later steps, so backtracking needs
//     no unbinding at all;
//   - per-step probe candidates: the columns statically known to be
//     bound when the step runs, in positional order, so index selection
//     is a precomputed list walk;
//   - the sorted relation lock order and, for sharded stores, the
//     hash-column routing mode of every step (constant, frame slot, or
//     scatter over all parts).
//
// Plans are cached per store (Instance and ShardedInstance each carry a
// planCache) and validated against schema versions on every hit, so
// AddRelation/CreateRelation and BuildIndex invalidate affected plans
// without any coordination on the write path. See exec.go for the
// runtime that binds a plan to one call's constants and runs it.

// opKind classifies how one atom column is handled during a join step.
type opKind uint8

const (
	// opConst: the column must equal one of the call's constants.
	opConst opKind = iota
	// opBind: first occurrence of a variable — write the frame slot.
	opBind
	// opCheck: the column must equal an already-written frame slot.
	opCheck
)

// planArg is one column's operation: kind plus an index into the call's
// constant table (opConst) or the variable frame (opBind/opCheck).
type planArg struct {
	kind opKind
	ix   int
}

// routeKind classifies how a step narrows a sharded relation to parts.
type routeKind uint8

const (
	// routeAll probes every locked part (unsharded, or hash col unbound
	// when the step runs).
	routeAll routeKind = iota
	// routeConst probes the single part owning a constant hash value,
	// resolved once per call at bind time.
	routeConst
	// routeFrame probes the single part owning the hash value a prior
	// step bound, resolved per search node from the frame.
	routeFrame
)

// boundCol is a column whose value is known before its step runs —
// an index-probe candidate.
type boundCol struct {
	col int
	src planArg // opConst or opCheck
}

// planStep is one joined atom in execution order.
type planStep struct {
	atom int // index into the caller's body
	rel  int // index into plan.rels
	args []planArg
	// bound lists the probe-candidate columns in positional order; the
	// executor probes the first one with a live hash index.
	bound   []boundCol
	route   routeKind
	routeIx int // const index (routeConst) or frame slot (routeFrame)
}

// planRel is one distinct relation of the body, with everything the
// lock planner needs precomputed.
type planRel struct {
	name  string
	parts []*Relation // 1 part for an Instance, K for a ShardedInstance
	key   int         // hash column, -1 when unsharded
	arity int
	size  int // tuple count at compile time (join-order tie-break)
	// needsAll is true when some atom leaves the hash column variable:
	// every part is reachable and must be locked. Otherwise routes
	// holds the const-table indexes of the hash values the body pins,
	// and only the owning parts are locked.
	needsAll bool
	routes   []int
	versions []uint64 // per-part Relation versions at compile time
}

// plan is a compiled conjunctive query: shared, immutable after
// compile, safe for any number of concurrent executions.
type plan struct {
	shape  string
	steps  []planStep
	rels   []planRel // sorted by name — the global lock order
	nSlots int
	// lone lists the steps whose atom shares no variable with the rest
	// of the body, in body order: what a failed query probes (empty).
	lone []int
	// constAt maps const index -> (atom, arg, argument) position in the
	// body, in body order — the argument counted across the body, as a
	// substitution's term table counts it — so each call fills its own
	// constant values into the shared plan.
	constAt [][3]int
	// instVersions are the owning store's schema versions at compile
	// time; a mismatch on lookup retires the plan.
	instVersions []uint64

	pool sync.Pool // *exec, reused across calls
}

// shapeBuf holds the reusable scratch for computing a body's shape key,
// pooled so cache hits — the serving steady state — allocate nothing.
type shapeBuf struct {
	key     []byte
	ids     []int    // argument -> its variable's number, -1 for a constant
	names   []string // variables by first occurrence
	classes []int32  // under a substitution: unbound classes by first occurrence
}

var shapeBufPool = sync.Pool{New: func() any { return new(shapeBuf) }}

// build fills sb.key with the canonical shape of body, resolved under s
// when s is non-nil (the SolveUnder path: a variable is resolved by its
// position, and one the substitution binds is a constant of the shape,
// while unified variables are one class and share one number).
// Relation names are length-prefixed so arbitrary names cannot collide,
// constants are abstracted to a placeholder, and variables — classes,
// under s — are numbered by first occurrence, into sb.ids. Two bodies
// with the same key share one compiled plan.
func (sb *shapeBuf) build(body []eq.Atom, s *unify.Subst) {
	b, ids := sb.key[:0], sb.ids[:0]
	names, classes := sb.names[:0], sb.classes[:0]
	k := 0 // the argument's position in the body
	for ai := range body {
		a := &body[ai]
		b = strconv.AppendInt(b, int64(len(a.Rel)), 10)
		b = append(b, ':')
		b = append(b, a.Rel...)
		b = append(b, '(')
		for j := range a.Args {
			if j > 0 {
				b = append(b, ',')
			}
			id := -1 // a constant
			switch t := a.Args[j]; {
			case !t.IsVar():
			case s == nil:
				if id = slices.Index(names, t.Name); id < 0 { // small bodies: a scan beats a map
					id, names = len(names), append(names, t.Name)
				}
			default:
				if rep, _, bound := s.Term(k); !bound {
					if id = slices.Index(classes, rep); id < 0 {
						id, classes = len(classes), append(classes, rep)
					}
				}
			}
			k, ids = k+1, append(ids, id)
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, ')')
	}
	sb.key, sb.ids, sb.names, sb.classes = b, ids, names, classes
}

// compilePlan builds the plan for one body shape, ids numbering the
// body's arguments as shapeBuf.build does. src resolves a relation name
// to its shard parts and hash column (key -1 and a single part for a
// plain instance). Unknown relations and arity mismatches are reported
// here, once per shape.
func compilePlan(shape string, body []eq.Atom, ids []int, instVersions []uint64, src func(name string) (parts []*Relation, key int, err error)) (*plan, error) {
	p := &plan{shape: shape, instVersions: instVersions}

	// Pass 1: resolve relations, assign constant and slot indexes in
	// body order (a slot is the shape key's variable number).
	relIx := map[string]int{}
	rels := []planRel{}
	atomRel := make([]int, len(body))
	argPlan := make([][]planArg, len(body))
	k := 0 // the argument's position in the body
	for ai, a := range body {
		ri, ok := relIx[a.Rel]
		if !ok {
			parts, key, err := src(a.Rel)
			if err != nil {
				return nil, err
			}
			versions := make([]uint64, len(parts))
			size := 0
			for i, pt := range parts {
				versions[i] = pt.version.Load()
				size += pt.Len()
			}
			ri = len(rels)
			rels = append(rels, planRel{
				name: a.Rel, parts: parts, key: key,
				arity: parts[0].Arity(), size: size, versions: versions,
			})
			relIx[a.Rel] = ri
		}
		if rels[ri].arity != len(a.Args) {
			return nil, fmt.Errorf("%w: atom %s has arity %d, relation has %d", ErrSchema, a, len(a.Args), rels[ri].arity)
		}
		atomRel[ai] = ri
		args := make([]planArg, len(a.Args))
		for j := range a.Args {
			if s := ids[0]; s >= 0 {
				p.nSlots = max(p.nSlots, s+1)
				// Provisional: the order pass decides bind vs check.
				args[j] = planArg{kind: opBind, ix: s}
			} else {
				c := len(p.constAt)
				p.constAt = append(p.constAt, [3]int{ai, j, k})
				args[j] = planArg{kind: opConst, ix: c}
			}
			ids, k = ids[1:], k+1
		}
		argPlan[ai] = args
		// Lock-plan routing: a constant hash column pins one part; a
		// variable one, or no hash column, makes every part reachable.
		if r := &rels[ri]; r.key >= 0 && args[r.key].kind == opConst {
			r.routes = append(r.routes, args[r.key].ix)
		} else {
			r.needsAll = true
		}
	}

	// Pass 2: fix the join order greedily — most bound arguments first
	// (constants and variables bound by earlier steps), ties to the
	// smaller relation — and classify every column against the frozen
	// order.
	n := len(body)
	used := make([]bool, n)
	slotBound := make([]bool, p.nSlots)
	p.steps = make([]planStep, 0, n)
	for len(p.steps) < n {
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			score := 0
			for _, a := range argPlan[i] {
				if a.kind == opConst || slotBound[a.ix] {
					score++
				}
			}
			if score > bestScore || (score == bestScore && rels[atomRel[i]].size < rels[atomRel[best]].size) {
				best, bestScore = i, score
			}
		}
		st := planStep{atom: best, rel: atomRel[best]}
		args := make([]planArg, len(argPlan[best]))
		var boundThis []int // slots first bound by this step
		for j, a := range argPlan[best] {
			switch {
			case a.kind == opConst:
				args[j] = a
				st.bound = append(st.bound, boundCol{col: j, src: a})
			case slotBound[a.ix]:
				args[j] = planArg{kind: opCheck, ix: a.ix}
				st.bound = append(st.bound, boundCol{col: j, src: args[j]})
			case slices.Contains(boundThis, a.ix):
				// Repeated variable within the atom: the earlier column
				// writes the slot, this one checks it. Not a probe
				// candidate — the slot is unset when the step probes.
				args[j] = planArg{kind: opCheck, ix: a.ix}
			default:
				args[j] = planArg{kind: opBind, ix: a.ix}
				boundThis = append(boundThis, a.ix)
			}
		}
		st.args = args
		// Shard routing: only values bound before the step probes
		// (constants and earlier-step slots) can narrow the part set.
		if r := &rels[st.rel]; r.key >= 0 && len(r.parts) > 1 {
			switch a := args[r.key]; {
			case a.kind == opConst:
				st.route, st.routeIx = routeConst, a.ix
			case a.kind == opCheck && slotBound[a.ix]:
				st.route, st.routeIx = routeFrame, a.ix
			}
		}
		for _, s := range boundThis {
			slotBound[s] = true
		}
		used[best] = true
		p.steps = append(p.steps, st)
	}

	// Sort relations by name: bind() acquires read locks in rels order,
	// giving one deterministic (name, shard) total order.
	byName := func(r planRel, name string) int { return strings.Compare(r.name, name) }
	p.rels = slices.SortedFunc(slices.Values(rels), func(a, b planRel) int { return byName(a, b.name) })
	for i := range p.steps {
		p.steps[i].rel, _ = slices.BinarySearchFunc(p.rels, rels[p.steps[i].rel].name, byName)
	}
	p.lone = loneSteps(argPlan, p.steps, p.nSlots)
	return p, nil
}

// loneSteps returns, in body order of their atoms, the steps whose
// atom uses no slot another atom uses.
func loneSteps(argPlan [][]planArg, steps []planStep, nSlots int) []int {
	owner := make([]int, nSlots) // slot -> 1 + the one atom using it, 0 for none, -1 for several
	for ai, args := range argPlan {
		for _, a := range args {
			switch {
			case a.kind == opConst:
			case owner[a.ix] == 0:
				owner[a.ix] = ai + 1
			case owner[a.ix] != ai+1:
				owner[a.ix] = -1
			}
		}
	}
	var lone []int
	for ai, args := range argPlan {
		if !slices.ContainsFunc(args, func(a planArg) bool { return a.kind != opConst && owner[a.ix] != ai+1 }) {
			lone = append(lone, slices.IndexFunc(steps, func(st planStep) bool { return st.atom == ai }))
		}
	}
	return lone
}

// planSource is the store-specific half of plan lookup: which schema
// versions a plan must match, and where a relation's parts live.
// *Instance and *ShardedInstance implement it; planFor is the shared
// half.
type planSource interface {
	// countQuery counts one conjunctive query on the store's aggregate
	// counter (and sleeps its simulated latency, if any).
	countQuery()
	// schemaVersions reads the store's current schema versions, the
	// vector a plan compiled now records as instVersions.
	schemaVersions() []uint64
	// planValid reports whether a cached plan still matches those
	// versions and every part it compiled against; it must not
	// allocate (it runs on every cache hit).
	planValid(p *plan) bool
	// resolve returns a relation's shard parts and hash column (one
	// part and key -1 when unsharded).
	resolve(name string) (parts []*Relation, key int, err error)
}

// planFor returns the compiled plan for the body (resolved under s when
// s is non-nil), compiling and caching it on a miss or when a schema
// change retired the cached entry. The hit path allocates nothing: the
// shape key is built in a pooled buffer and looked up without
// conversion.
func planFor(src planSource, cache *planCache, body []eq.Atom, s *unify.Subst) (*plan, error) {
	sb := shapeBufPool.Get().(*shapeBuf)
	defer shapeBufPool.Put(sb)
	sb.build(body, s)
	if p := cache.get(sb.key); p != nil && src.planValid(p) {
		cache.hits.Add(1)
		return p, nil
	}
	cache.miss.Add(1)
	shape := string(sb.key)
	// Read the versions before resolving relations: a concurrent schema
	// change between the two can only make the new plan look stale
	// (recompiled on next use), never let a stale pointer pass
	// validation.
	vers := src.schemaVersions()
	p, err := compilePlan(shape, body, sb.ids, vers, src.resolve)
	if err != nil {
		return nil, err
	}
	cache.put(shape, p)
	return p, nil
}

func (in *Instance) schemaVersions() []uint64 { return []uint64{in.version.Load()} }

func (in *Instance) planValid(p *plan) bool {
	return p.instVersions[0] == in.version.Load() && p.relsValid()
}

func (in *Instance) resolve(name string) ([]*Relation, int, error) {
	r, ok := in.Relation(name)
	if !ok {
		return nil, 0, fmt.Errorf("%w: unknown relation %s", ErrSchema, name)
	}
	return []*Relation{r}, -1, nil
}

// relsValid reports whether every relation the plan compiled against is
// still current (no BuildIndex since compile, and — combined with the
// store-version check the caller performs — no replacement).
func (p *plan) relsValid() bool {
	for i := range p.rels {
		r := &p.rels[i]
		for j, pt := range r.parts {
			if pt.version.Load() != r.versions[j] {
				return false
			}
		}
	}
	return true
}
