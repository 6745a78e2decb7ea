package db

import (
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
