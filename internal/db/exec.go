package db

import (
	"slices"

	"entangled/internal/eq"
	"entangled/internal/unify"
)

// exec is the per-call runtime state of one compiled-plan execution: the
// call's constant values, the variable frame, the narrowed and locked
// shard parts, and the probe resolution (which hash index, if any, each
// step uses on each part). An exec is pooled on its plan, so steady-state
// evaluation allocates only the result bindings the API must return: one
// frame per answer, or none when a released one is free.
type exec struct {
	p      *plan
	consts []eq.Value
	frame  []eq.Value

	// relParts[ri] is the slice of rel ri's parts this call locked, in
	// shard order. It aliases plan.rels[ri].parts when every part is
	// needed, or ownParts[ri] (owned storage) when narrowed.
	relParts [][]*Relation
	ownParts [][]*Relation
	// parts/probes are per step: the parts the step iterates and, per
	// part, the resolved index probe (nil idx means scan).
	parts   [][]*Relation
	singles [][1]*Relation // owned backing for routeConst steps
	probes  [][]probeRef

	locked  []*Relation
	needBuf []bool

	limit   int
	end     int // run emits at this depth: past the last step, or past the one empty probes
	results []Binding
	one     [1]Binding // backs results under choose-1: the answer is the call's only allocation
	exists  bool       // existence mode: stop at the first match
	found   bool
}

// probeRef is one step's access path on one part: walk idx's bucket
// for value(src) when idx is non-nil, scan the part otherwise.
type probeRef struct {
	idx *index
	src planArg
}

// bind prepares a pooled exec for one call: fill the constant table
// from the concrete body — under s, a variable resolved by its
// position, so the SolveUnder path never materialises a substituted
// body — read-lock exactly the parts the call can reach (in the plan's
// deterministic relation order, shard index ascending), and resolve
// each step's index probe under those locks. The caller must run
// release() when done.
func (p *plan) bind(body []eq.Atom, s *unify.Subst) *exec {
	x, _ := p.pool.Get().(*exec)
	if x == nil {
		x = &exec{
			p:        p,
			consts:   make([]eq.Value, len(p.constAt)),
			frame:    make([]eq.Value, p.nSlots),
			relParts: make([][]*Relation, len(p.rels)),
			ownParts: make([][]*Relation, len(p.rels)),
			parts:    make([][]*Relation, len(p.steps)),
			singles:  make([][1]*Relation, len(p.steps)),
			probes:   make([][]probeRef, len(p.steps)),
		}
	}
	x.limit, x.exists, x.found, x.end = 0, false, false, len(p.steps)
	for i, pos := range p.constAt {
		if t := body[pos[0]].Args[pos[1]]; !t.IsVar() {
			x.consts[i] = t.Const()
		} else {
			_, x.consts[i], _ = s.Term(pos[2])
		}
	}

	// Lock planning: for each relation (name order) lock the parts the
	// body can reach — all of them when any atom leaves the hash column
	// variable, only the constant-owned ones otherwise.
	x.locked = x.locked[:0]
	for ri := range p.rels {
		r := &p.rels[ri]
		if r.needsAll || len(r.parts) == 1 {
			x.relParts[ri] = r.parts
			for _, pt := range r.parts {
				pt.mu.RLock()
				x.locked = append(x.locked, pt)
			}
			continue
		}
		k := len(r.parts)
		need := slices.Grow(x.needBuf[:0], k)[:k]
		clear(need)
		x.needBuf = need
		for _, cix := range r.routes {
			need[shardIndex(x.consts[cix], k)] = true
		}
		np := x.ownParts[ri][:0]
		for i := 0; i < k; i++ {
			if need[i] {
				r.parts[i].mu.RLock()
				x.locked = append(x.locked, r.parts[i])
				np = append(np, r.parts[i])
			}
		}
		x.ownParts[ri] = np
		x.relParts[ri] = np
	}

	// Probe resolution, under the read locks: for each step and part,
	// the first statically-bound column with a live hash index.
	for si := range p.steps {
		st := &p.steps[si]
		if st.route == routeConst {
			r := &p.rels[st.rel]
			x.singles[si][0] = r.parts[shardIndex(x.consts[st.routeIx], len(r.parts))]
			x.parts[si] = x.singles[si][:]
		} else {
			// routeFrame steps only arise when the relation needs every
			// part, so relParts is the full shard-ordered part list and
			// run() can index it by hash directly.
			x.parts[si] = x.relParts[st.rel]
		}
		pb := x.probes[si][:0]
		for _, pt := range x.parts[si] {
			var pr probeRef
			for _, bc := range st.bound {
				if idx, ok := pt.indexes[bc.col]; ok {
					pr = probeRef{idx: idx, src: bc.src}
					break
				}
			}
			pb = append(pb, pr)
		}
		x.probes[si] = pb
	}
	return x
}

// release unlocks every part and returns the exec to the plan's pool.
func (x *exec) release() {
	for i := len(x.locked) - 1; i >= 0; i-- {
		x.locked[i].mu.RUnlock()
	}
	x.one[0], x.results = Binding{}, nil
	x.p.pool.Put(x)
}

// run executes the join from the given step, returning false when the
// caller should stop (limit reached, existence proven).
func (x *exec) run(depth int) bool {
	if depth == x.end {
		return x.emit()
	}
	st := &x.p.steps[depth]
	parts := x.parts[depth]
	if st.route == routeFrame {
		i := shardIndex(x.frame[st.routeIx], len(parts))
		return x.runPart(depth, st, parts[i], x.probes[depth][i])
	}
	for i, pt := range parts {
		if !x.runPart(depth, st, pt, x.probes[depth][i]) {
			return false
		}
	}
	return true
}

func (x *exec) runPart(depth int, st *planStep, pt *Relation, pr probeRef) bool {
	if pr.idx != nil {
		var v eq.Value
		if pr.src.kind == opConst {
			v = x.consts[pr.src.ix]
		} else {
			v = x.frame[pr.src.ix]
		}
		first, last := pr.idx.bucket(pt, v)
		for row := first; row >= 0; row = pr.idx.after(row, last) {
			if x.match(st, pt.tuple(row)) && !x.run(depth+1) {
				return false
			}
		}
		return true
	}
	// No usable index: iterate the rows directly — no candidate row
	// list is materialised.
	for row := 0; row < pt.rows; row++ {
		if x.match(st, pt.tuple(row)) && !x.run(depth+1) {
			return false
		}
	}
	return true
}

// match tests one tuple against a step. opBind writes are never undone:
// a slot is only read by steps that run strictly after the one that
// binds it, so stale values from a failed branch are overwritten before
// they can be observed.
func (x *exec) match(st *planStep, t Tuple) bool {
	for i, a := range st.args {
		switch a.kind {
		case opConst:
			if t[i] != x.consts[a.ix] {
				return false
			}
		case opCheck:
			if t[i] != x.frame[a.ix] {
				return false
			}
		default: // opBind
			x.frame[a.ix] = t[i]
		}
	}
	return true
}

// emit delivers one full assignment. A Binding — a copy of the frame —
// is materialised only here, the API boundary, never inside the join,
// and only when the caller asked for one.
func (x *exec) emit() bool {
	if x.exists {
		x.found = true
		return false
	}
	x.results = append(x.results, bindingOf(x.frame))
	return x.limit <= 0 || len(x.results) < x.limit
}

// solveOne runs the plan to its first answer. Without one, the binding
// names the body's first lone atom that matches no row, if any (empty).
func (p *plan) solveOne(body []eq.Atom, s *unify.Subst) (Binding, bool) {
	x := p.bind(body, s)
	x.limit, x.results = 1, x.one[:0]
	x.run(0)
	b, found := x.one[0], len(x.results) == 1
	if !found {
		b = EmptyAt(x.empty())
	}
	x.release()
	return b, found
}

// empty probes the plan's lone atoms in body order, each alone in
// existence mode on its step — run returns true when no row matches —
// and returns the first atom with no match, or -1.
func (x *exec) empty() int {
	x.exists = true
	for _, si := range x.p.lone {
		if x.end = si + 1; x.run(si) {
			return x.p.steps[si].atom
		}
	}
	return -1
}

// solveAll runs the plan and materialises up to limit bindings (limit
// <= 0 means all).
func (p *plan) solveAll(body []eq.Atom, limit int) []Binding {
	x := p.bind(body, nil)
	x.limit = limit
	x.run(0)
	res := x.results
	x.release()
	return res
}

// satisfiable runs the plan in existence mode: no bindings are
// materialised at all.
func (p *plan) satisfiable(body []eq.Atom) bool {
	x := p.bind(body, nil)
	x.exists = true
	x.run(0)
	found := x.found
	x.release()
	return found
}
