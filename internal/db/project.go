package db

import (
	"fmt"
	"sync"

	"entangled/internal/eq"
)

// Project answers n select-distinct-project questions against a single
// relation as one statement, the way a join against a VALUES list or a
// WHERE key IN (...) asks them together. Question i keeps the rows
// matching every (column -> constant) entry of where(i), and yield(i,
// row) is called once per distinct combination of the cols columns
// among them, in the order each first occurs in the relation, with the
// full row where it first occurs: a capped, stable view (do not write
// through it), so nothing is allocated for the answer. Questions are
// answered in order, all under one hold of the relation's read lock;
// yield must not call into the instance. where is called once per
// question, in order, before anything is yielded, and may refill one
// map.
//
// A relation Project cannot read, or a column of cols or of any where
// clause outside the arity, is an error found before anything is
// counted or yielded. Otherwise the batch counts as one database query
// (and sleeps SimulatedLatency once). The Consistent Coordination
// Algorithm uses it for the option lists V(q), with the keys of their
// rows, and the friend lists.
func (in *Instance) Project(rel string, cols []int, n int, where func(i int) map[int]eq.Value, yield func(i int, row Tuple)) error {
	r, ok := in.Relation(rel)
	if !ok {
		return fmt.Errorf("%w: unknown relation %s", ErrSchema, rel)
	}
	for _, c := range cols {
		if c < 0 || c >= r.Arity() {
			return fmt.Errorf("db: column %d out of range for %s", c, rel)
		}
	}
	w := wherePool.Get().(*wheres)
	defer w.release()
	for i := range n {
		for c, v := range where(i) {
			if c < 0 || c >= r.Arity() {
				return fmt.Errorf("db: column %d out of range for %s", c, rel)
			}
			w.conds = append(w.conds, cond{c, v})
			for j := len(w.conds) - 1; j > int(w.off[i]) && w.conds[j].col < w.conds[j-1].col; j-- {
				w.conds[j], w.conds[j-1] = w.conds[j-1], w.conds[j]
			}
		}
		w.off = append(w.off, int32(len(w.conds)))
	}
	in.countQuery()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := range n {
		conds := w.conds[w.off[i]:w.off[i+1]]
		s := scan{r: r, conds: conds, row: min(0, r.rows-1), last: r.rows - 1}
		for _, c := range conds {
			if idx, has := r.indexes[c.col]; has {
				s.idx = idx
				s.row, s.last = idx.bucket(r, c.val)
				break
			}
		}
		project(cols, s, i, yield)
	}
	return nil
}

// cond is one (column = constant) condition of a where clause.
type cond struct {
	col int
	val eq.Value
}

// wheres is Project's pooled scratch: every question's where clause
// flattened, ordered by column, so a map is ranged once per question and
// not once per row.
type wheres struct {
	conds []cond
	off   []int32 // question i's conditions are conds[off[i]:off[i+1]]
}

var wherePool = sync.Pool{New: func() any { return &wheres{off: []int32{0}} }}

// release drops the batch's values and pools w.
func (w *wheres) release() {
	clear(w.conds)
	w.conds, w.off = w.conds[:0], w.off[:1]
	wherePool.Put(w)
}

// scan walks the rows of one relation that satisfy a where clause, in
// row order: the bucket of a hash index on one of the where columns
// when there is one (Project picks it), every row otherwise — no
// candidate row list is materialised. The caller holds the relation's
// read lock.
type scan struct {
	r         *Relation
	conds     []cond
	idx       *index // the index whose bucket is walked; nil means walk every row
	row, last int    // the next row to walk (-1 when done) and the final one
}

// next returns the next matching row number, or -1 when none is left.
func (s *scan) next() int {
next:
	for s.row >= 0 {
		row := s.row
		switch {
		case s.idx != nil:
			s.row = s.idx.after(row, s.last)
		case row == s.last:
			s.row = -1
		default:
			s.row++
		}
		t := s.r.tuple(row)
		for _, c := range s.conds {
			if t[c.col] != c.val {
				continue next
			}
		}
		return row
	}
	return -1
}

// project yields, as question i's, the first row of each distinct
// cols-projection among the rows s walks, in first-occurrence order. Duplicates are found by
// hashing the projected columns and comparing rows in place; the
// scratch (first rows and the hash table, on the stack while the answer
// is small) is row numbers only.
func project(cols []int, s scan, i int, yield func(int, Tuple)) {
	var rowBuf [128]int32
	var tabBuf [256]int32
	rows, table := rowBuf[:0], tabBuf[:] // table: 1+row, 0 empty
	for row := s.next(); row >= 0; row = s.next() {
		if 2*(len(rows)+1) > len(table) {
			table = make([]int32, 2*len(table))
			for _, r := range rows {
				table[freeSlot(table, s.r, cols, s.r.tuple(int(r)))] = r + 1
			}
		}
		t := s.r.tuple(row)
		if at := freeSlot(table, s.r, cols, t); at >= 0 {
			table[at] = int32(row) + 1
			rows = append(rows, int32(row))
			yield(i, t)
		}
	}
}

// freeSlot probes table (open addressing, a power of two long, never
// full, holding 1 + a row of r) for t's projection: it returns the
// empty slot where t belongs, or -1 when a row with the same projection
// is already there.
func freeSlot(table []int32, r *Relation, cols []int, t Tuple) int {
	h := uint32(2166136261)
	for _, c := range cols {
		h = (h ^ Hash(string(t[c]))) * 16777619
	}
	mask := uint32(len(table) - 1)
probe:
	for at := (h ^ h>>16) & mask; ; at = (at + 1) & mask {
		if table[at] == 0 {
			return int(at)
		}
		u := r.tuple(int(table[at] - 1))
		for _, c := range cols {
			if t[c] != u[c] {
				continue probe
			}
		}
		return -1
	}
}
