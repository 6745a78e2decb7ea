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
	for c := 0; c < arity; c++ {
		rel.BuildIndex(c)
	}
	return rel, nil
}
