package db

import (
	"bytes"
	"strings"
	"testing"

	"entangled/internal/eq"
)

func TestLoadCSV(t *testing.T) {
	in := NewInstance()
	rel, err := in.LoadCSV("Flights", strings.NewReader("101,Zurich\n102, Paris \n"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 || rel.Arity() != 2 {
		t.Fatalf("shape %d x %d", rel.Len(), rel.Arity())
	}
	if rel.Tuple(1)[1] != "Paris" {
		t.Fatalf("whitespace must be trimmed: %q", rel.Tuple(1)[1])
	}
	// All columns are indexed.
	if !in.Contains(eq.NewAtom("Flights", eq.C("101"), eq.C("Zurich"))) {
		t.Fatal("loaded tuple missing")
	}
}

func TestLoadCSVErrors(t *testing.T) {
	in := NewInstance()
	if _, err := in.LoadCSV("E", strings.NewReader("")); err == nil {
		t.Fatal("empty input must fail")
	}
	if _, err := in.LoadCSV("E", strings.NewReader("a,b\nc\n")); err == nil {
		t.Fatal("ragged input must fail")
	}
}

func TestDumpCSVRoundTrip(t *testing.T) {
	in := NewInstance()
	r := in.CreateRelation("R", "a", "b")
	r.Insert("1", "x")
	r.Insert("2", "y")
	var buf bytes.Buffer
	if err := r.DumpCSV(&buf); err != nil {
		t.Fatal(err)
	}
	in2 := NewInstance()
	back, err := in2.LoadCSV("R", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.Tuple(0)[0] != "1" || back.Tuple(1)[1] != "y" {
		t.Fatalf("round trip: %v %v", back.Tuple(0), back.Tuple(1))
	}
}

func TestDeleteWhere(t *testing.T) {
	in := NewInstance()
	r := in.CreateRelation("R", "a", "b")
	r.Insert("1", "x")
	r.Insert("2", "x")
	r.Insert("3", "y")
	r.BuildIndex(1)
	if got := r.DeleteWhere(map[int]eq.Value{1: "x"}); got != 2 {
		t.Fatalf("removed = %d", got)
	}
	if r.Len() != 1 || r.Tuple(0)[0] != "3" {
		t.Fatalf("remaining: %d rows", r.Len())
	}
	// Index was rebuilt: Solve through the index sees only survivors.
	b, ok, err := in.Solve([]eq.Atom{eq.NewAtom("R", eq.V("k"), eq.C("y"))})
	if err != nil || !ok || b.At(0) != "3" {
		t.Fatalf("post-delete solve: %v %v %v", b, ok, err)
	}
	if _, ok, _ := in.Solve([]eq.Atom{eq.NewAtom("R", eq.V("k"), eq.C("x"))}); ok {
		t.Fatal("deleted tuples must be invisible")
	}
	// Empty filter clears everything.
	if got := r.DeleteWhere(nil); got != 1 {
		t.Fatalf("clear removed %d", got)
	}
	if r.Len() != 0 {
		t.Fatal("relation should be empty")
	}
}
