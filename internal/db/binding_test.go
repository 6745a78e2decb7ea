package db

import (
	"slices"
	"testing"

	"entangled/internal/eq"
)

// TestReleasedFrameReadsCleared releases an answer while a copy of it is
// still held: the copy reads back cleared values, so a frame in the pool
// pins no value of the store, and the released variable binds nothing.
func TestReleasedFrameReadsCleared(t *testing.T) {
	in, body, subs := solveUnderFixture(t, 10)
	b, ok, err := in.SolveUnder(body, subs[0])
	if err != nil || !ok || b.Len() != 10 {
		t.Fatalf("binding of %d, ok=%v err=%v", b.Len(), ok, err)
	}
	held := b
	b.Release()
	if b.Len() != 0 {
		t.Fatalf("a released binding still binds %d values", b.Len())
	}
	for i := range held.Len() {
		if v := held.At(i); v != "" {
			t.Fatalf("slot %d of a released frame reads %q", i, v)
		}
	}
	b.Release() // a second release through the same variable does nothing
}

// TestReleaseLeavesValuesOfAlone releases a binding the caller built
// over a slice of its own: the slice keeps its values, and later answers
// of the same length, released and not, never write into it.
func TestReleaseLeavesValuesOfAlone(t *testing.T) {
	in, body, subs := solveUnderFixture(t, 10)
	vals := make([]eq.Value, 10)
	for i := range vals {
		vals[i] = eq.Value("mine")
	}
	want := slices.Clone(vals)
	b := ValuesOf(vals...)
	b.Release()
	if b.Len() != len(vals) || !slices.Equal(vals, want) {
		t.Fatalf("Release changed a ValuesOf binding: %d values, %v", b.Len(), vals)
	}
	for i := range 2 * len(subs) {
		ans, ok, err := in.SolveUnder(body, subs[i%len(subs)])
		if err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		if &ans.vals[0] == &vals[0] {
			t.Fatalf("answer %d was written into the caller's slice", i)
		}
		if i%2 == 0 {
			ans.Release()
		}
	}
	if !slices.Equal(vals, want) {
		t.Fatalf("later answers wrote into the caller's slice: %v", vals)
	}
}
