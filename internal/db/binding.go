package db

import "entangled/internal/eq"

// Binding is the result of grounding a conjunctive query: the values
// the body's variables take, one per slot, in one allocation made where
// the join ends — 16 bytes a variable. Slots number the body's
// variables by first occurrence, the way its shape key does; under a
// substitution (SolveUnder) they are the substitution's unbound classes,
// by first occurrence in the body. A Binding carries no names: the
// caller, who holds the body, reads slot i with At. The zero Binding
// binds nothing; whether a query was answered at all is the ok result
// beside it.
type Binding struct {
	vals []eq.Value // slot -> value
}

// ValuesOf returns the binding holding vals, slot by slot.
func ValuesOf(vals ...eq.Value) Binding { return Binding{vals} }

// Len returns the number of variables bound.
func (b Binding) Len() int { return len(b.vals) }

// At returns the value of the variable in slot i.
func (b Binding) At(i int) eq.Value { return b.vals[i] }
