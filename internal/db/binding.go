package db

import (
	"slices"
	"sync"
	"unsafe"

	"entangled/internal/eq"
)

// Binding is the result of grounding a conjunctive query: the values
// the body's variables take, one per slot, in a frame filled where the
// join ends — 16 bytes a variable, recycled through Release. Slots
// number the body's variables by first occurrence, the way its shape
// key does; under a substitution (SolveUnder) they are the
// substitution's unbound classes, by first occurrence in the body. A
// Binding carries no names: the caller, who holds the body, reads slot
// i with At. The zero Binding binds nothing; whether a query was
// answered at all is the ok result beside it; without an answer, Empty
// may name why (the package doc, "A failed query names its empty atom").
type Binding struct {
	vals   []eq.Value // slot -> value
	pooled bool       // vals is a frame db made, which Release recycles
	empty  int32      // 1 + the atom Empty names, 0 for none
}

// ValuesOf returns the binding holding vals, slot by slot.
func ValuesOf(vals ...eq.Value) Binding { return Binding{vals: vals} }

// EmptyAt returns the binding of a query with no answer that names body
// atom atom as empty; a negative atom names none.
func EmptyAt(atom int) Binding { return Binding{empty: int32(max(atom, -1) + 1)} }

// Empty returns the body atom a query with no answer names, if any: the
// first that shares no variable with the rest and matches no row alone.
func (b Binding) Empty() (atom int, ok bool) { return int(b.empty) - 1, b.empty > 0 }

// Len returns the number of variables bound.
func (b Binding) Len() int { return len(b.vals) }

// At returns the value of the variable in slot i.
func (b Binding) At(i int) eq.Value { return b.vals[i] }

// Release clears b's frame, hands it back for a later answer of its
// length to fill, and zeroes b; every copy of b then reads cleared
// values. Only the frame's one owner may call it, once it has read what
// it needs. It does nothing to a binding db did not make (ValuesOf) or
// one already released through the same variable.
func (b *Binding) Release() {
	if b.pooled {
		clear(b.vals)
		frames[len(b.vals)].Put(&b.vals[0])
		*b = Binding{}
	}
}

// frames[n] holds released frames of n values, n up to 1,024, each by
// its first element, which a sync.Pool stores without an allocation; a
// longer frame is left to the collector.
var frames [1 + 1024]sync.Pool

// bindingOf copies frame into a binding, on a released frame of its
// length when there is one.
func bindingOf(frame []eq.Value) Binding {
	n := len(frame)
	if n == 0 || n >= len(frames) {
		return Binding{vals: slices.Clone(frame)}
	}
	if p, _ := frames[n].Get().(*eq.Value); p != nil {
		vals := unsafe.Slice(p, n) // the first of n values, as Release put it
		copy(vals, frame)
		return Binding{vals: vals, pooled: true}
	}
	return Binding{vals: slices.Clone(frame), pooled: true}
}
