package coord

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// Result is a coordinating set together with the witnessing assignment.
// Its JSON form is part of the HTTP protocol: Values' query indices are
// decimal object keys in encoding/json's order (golden tests pin it),
// which AppendJSON renders without reflection.
type Result struct {
	// Set holds the indices (into the input query slice) of the queries
	// in the coordinating set, sorted ascending.
	Set []int `json:"set"`
	// Values maps each query index in Set to an assignment of that
	// query's original variable names to database values. Every variable
	// of every query in the set is assigned (Definition 1, condition 1).
	Values map[int]map[string]eq.Value `json:"values,omitempty"`
	// DBQueries is the number of conjunctive queries issued while
	// computing this result — the paper's central cost metric. Every
	// algorithm counts on a private per-run db.Meter, so the value is
	// exact for this run alone even when the underlying store is shared
	// with concurrent requests (engine.CoordinateMany).
	DBQueries int64 `json:"db_queries"`
}

// AppendJSON appends r's JSON encoding to b and returns it: the bytes
// encoding/json writes for the struct, rendered by hand. Values' keys
// go in encoding/json's order, their decimal strings sorted as strings
// ("10" before "2"), and each member's names sorted; both sort in stack
// buffers, which a set of up to 128 queries of up to 8 variables each
// never outgrows, so such a result renders without allocating.
func (r *Result) AppendJSON(b []byte) []byte {
	b = append(b, `{"set":`...)
	if r.Set == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, qi := range r.Set {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(qi), 10)
		}
		b = append(b, ']')
	}
	if len(r.Values) > 0 {
		b = append(b, `,"values":{`...)
		var keyBuf [128]int
		var nameBuf [8]string
		keys, names := keyBuf[:0], nameBuf[:0] // names: one scratch for every query's
		for k := range r.Values {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, byDecimal)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = strconv.AppendInt(b, int64(k), 10)
			b = append(b, `":`...)
			vals := r.Values[k]
			if vals == nil {
				b = append(b, "null"...)
				continue
			}
			names = names[:0]
			for name := range vals {
				names = append(names, name)
			}
			slices.Sort(names)
			b = append(b, '{')
			for j, name := range names {
				if j > 0 {
					b = append(b, ',')
				}
				b = eq.AppendJSONString(b, name)
				b = append(b, ':')
				b = eq.AppendJSONString(b, string(vals[name]))
			}
			b = append(b, '}')
		}
		b = append(b, '}')
	}
	b = append(b, `,"db_queries":`...)
	b = strconv.AppendInt(b, r.DBQueries, 10)
	return append(b, '}')
}

// MarshalJSON is AppendJSON(nil), so every JSON encoding of a Result
// (a session status's, say) skips the reflective map encoder too.
func (r *Result) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil), nil }

// byDecimal orders ints as encoding/json orders them as object keys: by
// their decimal strings.
func byDecimal(a, b int) int {
	var x, y [20]byte // the longest int64, "-9223372036854775808"
	return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
}

// IDs returns the query identifiers of the coordinating set.
func (r *Result) IDs(qs []eq.Query) []string {
	out := make([]string, len(r.Set))
	for i, qi := range r.Set {
		out[i] = qs[qi].ID
	}
	return out
}

// Release clears r's value maps, hands them back to the pool the §4
// walk renders witnesses from, and sets r.Values to nil. It is for the
// holder of the last reference to r — the server, once the reply is
// rendered — and is safe on nil and a second time. A Result never
// released keeps its maps, and they go to the collector.
func (r *Result) Release() {
	if r == nil || r.Values == nil {
		return
	}
	for _, m := range r.Values {
		if m != nil { // pooled, a nil map would fail the walk that gets it
			clear(m)
			assignments.Put(m)
		}
	}
	clear(r.Values)
	valueMaps.Put(r.Values)
	r.Values = nil
}

// valueMaps (query index → assignment) and assignments (variable name →
// value) hold the maps Release handed back, for search.values to refill.
var valueMaps, assignments sync.Pool

// pooledMap is a cleared map from p, or a new one sized for hint.
func pooledMap[K comparable, V any](p *sync.Pool, hint int) map[K]V {
	if m, ok := p.Get().(map[K]V); ok {
		return m
	}
	return make(map[K]V, hint)
}

// Size returns the number of queries in the set (0 for nil).
func (r *Result) Size() int {
	if r == nil {
		return 0
	}
	return len(r.Set)
}

// Verify checks that (set, values) is a coordinating set for qs over
// inst, per Definition 1 of the paper:
//
//  1. every variable of every query in the set is assigned;
//  2. the grounded version of every body atom appears in the instance;
//  3. the grounded postcondition atoms form a subset of the grounded
//     head atoms of the set.
//
// It returns nil when all three conditions hold.
func Verify(qs []eq.Query, set []int, values map[int]map[string]eq.Value, store db.Store) error {
	if len(set) == 0 {
		return fmt.Errorf("coord: coordinating set must be non-empty")
	}
	inSet := map[int]bool{}
	for _, i := range set {
		if i < 0 || i >= len(qs) {
			return fmt.Errorf("coord: set member %d out of range", i)
		}
		if inSet[i] {
			return fmt.Errorf("coord: duplicate set member %d", i)
		}
		inSet[i] = true
	}

	ground := func(qi int, a eq.Atom) (eq.Atom, error) {
		out := a.Clone()
		for k, t := range out.Args {
			if !t.IsVar() {
				continue
			}
			v, ok := values[qi][t.Name]
			if !ok {
				return out, fmt.Errorf("coord: query %d variable %s unassigned", qi, t.Name)
			}
			out.Args[k] = eq.C(v)
		}
		return out, nil
	}

	headSet := map[string]bool{}
	type postAtom struct {
		qi int
		a  eq.Atom
	}
	var posts []postAtom
	for _, qi := range set {
		q := qs[qi]
		// Condition 1 for variables that appear anywhere in the query.
		for _, v := range q.Vars() {
			if _, ok := values[qi][v]; !ok {
				return fmt.Errorf("coord: query %d (%s) variable %s unassigned", qi, q.ID, v)
			}
		}
		// Condition 2: grounded bodies present in the instance.
		for _, b := range q.Body {
			g, err := ground(qi, b)
			if err != nil {
				return err
			}
			if !store.Contains(g) {
				return fmt.Errorf("coord: query %d (%s): grounded body atom %s not in database", qi, q.ID, g)
			}
		}
		for _, h := range q.Head {
			g, err := ground(qi, h)
			if err != nil {
				return err
			}
			headSet[g.String()] = true
		}
		for _, p := range q.Post {
			g, err := ground(qi, p)
			if err != nil {
				return err
			}
			posts = append(posts, postAtom{qi, g})
		}
	}
	// Condition 3: grounded posts ⊆ grounded heads.
	for _, p := range posts {
		if !headSet[p.a.String()] {
			return fmt.Errorf("coord: query %d (%s): grounded postcondition %s not among grounded heads", p.qi, qs[p.qi].ID, p.a)
		}
	}
	return nil
}

// sortedCopy returns a sorted copy of xs in one allocation, nil for an
// empty xs (the golden bytes render a nil Set, not an empty one).
func sortedCopy(xs []int) []int {
	s := append([]int(nil), xs...)
	slices.Sort(s)
	return s
}
