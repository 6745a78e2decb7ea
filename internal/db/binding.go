package db

import (
	"iter"
	"slices"
	"strings"

	"entangled/internal/eq"
)

// Binding is the result of grounding a conjunctive query: the body's
// variables with the database values they take. It is an immutable
// frame of (name, value) pairs in the evaluator's slot order — one
// allocation, made where the join ends — not a map: a caller that wants
// to index it by name many times builds that index itself, once, for
// the binding it keeps. The zero Binding binds nothing; whether a query
// was answered at all is the ok result beside it.
type Binding struct{ vars []boundVar }

type boundVar struct {
	name string
	val  eq.Value
}

// BindingOf returns the binding holding m's pairs, in name order.
func BindingOf(m map[string]eq.Value) Binding {
	vars := make([]boundVar, 0, len(m))
	for name, v := range m {
		vars = append(vars, boundVar{name, v})
	}
	slices.SortFunc(vars, func(a, b boundVar) int { return strings.Compare(a.name, b.name) })
	return Binding{vars}
}

// Len returns the number of variables bound.
func (b Binding) Len() int { return len(b.vars) }

// Lookup returns the value of the named variable, by scanning the
// frame: fine for a probe, quadratic as a way to read every variable.
func (b Binding) Lookup(name string) (eq.Value, bool) {
	for _, bv := range b.vars {
		if bv.name == name {
			return bv.val, true
		}
	}
	return "", false
}

// All yields every (variable, value) pair in frame order.
func (b Binding) All() iter.Seq2[string, eq.Value] {
	return func(yield func(string, eq.Value) bool) {
		for _, bv := range b.vars {
			if !yield(bv.name, bv.val) {
				return
			}
		}
	}
}
