package db

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"entangled/internal/eq"
)

// LoadCSV reads a headerless CSV stream into a new relation registered
// under name; the arity is taken from the first record and an index is
// built on every column. cmd/coordctl uses it to load tables from disk.
func (in *Instance) LoadCSV(name string, r io.Reader) (*Relation, error) {
	rel, err := in.readCSV(name, r)
	for c := 0; err == nil && c < rel.Arity(); c++ {
		rel.BuildIndex(c)
	}
	return rel, err
}

// readCSV is LoadCSV without the indexes.
func (in *Instance) readCSV(name string, r io.Reader) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("db: %s: %w", name, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("db: %s: empty CSV input", name)
	}
	arity := len(rows[0])
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("c%d", i)
	}
	rel := in.CreateRelation(name, attrs...)
	vals := make([]eq.Value, arity)
	for ln, row := range rows {
		if len(row) != arity {
			return nil, fmt.Errorf("db: %s: record %d has %d fields, expected %d", name, ln+1, len(row), arity)
		}
		for i, c := range row {
			vals[i] = eq.Value(strings.TrimSpace(c))
		}
		rel.Insert(vals...)
	}
	return rel, nil
}

// DumpCSV writes the relation's tuples as headerless CSV in insertion
// order.
func (r *Relation) DumpCSV(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cw := csv.NewWriter(w)
	record := make([]string, r.Arity())
	for row := 0; row < r.rows; row++ {
		for i, v := range r.tuple(row) {
			record[i] = string(v)
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// DeleteWhere removes every tuple matching the (column -> constant)
// filter and rebuilds the relation's indexes; it returns the number of
// tuples removed. An empty filter clears the relation. The survivors
// are copied to a new slab: views of the old one stay as they were.
func (r *Relation) DeleteWhere(where map[int]eq.Value) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var kept []eq.Value
	removed := 0
	for row := 0; row < r.rows; row++ {
		t := r.tuple(row)
		match := true
		for c, v := range where {
			if t[c] != v {
				match = false
				break
			}
		}
		if match {
			removed++
		} else {
			kept = append(kept, t...)
		}
	}
	r.vals, r.rows = kept, r.rows-removed
	for col := range r.indexes {
		r.buildIndexLocked(col)
	}
	return removed
}
