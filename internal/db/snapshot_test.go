package db

import (
	"os"
	"path/filepath"
	"testing"

	"entangled/internal/eq"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := flightsInstance()
	if err := in.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range in.RelationNames() {
		orig, _ := in.Relation(name)
		got, ok := back.Relation(name)
		if !ok {
			t.Fatalf("relation %s missing after load", name)
		}
		if got.Len() != orig.Len() || got.Arity() != orig.Arity() {
			t.Fatalf("%s shape: %dx%d vs %dx%d", name, got.Len(), got.Arity(), orig.Len(), orig.Arity())
		}
		for i := 0; i < orig.Len(); i++ {
			for j := range orig.Tuple(i) {
				if got.Tuple(i)[j] != orig.Tuple(i)[j] {
					t.Fatalf("%s tuple %d differs", name, i)
				}
			}
		}
		// Attribute names survive.
		for j, a := range orig.Attrs {
			if got.Attrs[j] != a {
				t.Fatalf("%s attrs: %v vs %v", name, got.Attrs, orig.Attrs)
			}
		}
	}
	// Queries behave identically on the reloaded instance.
	body := []eq.Atom{eq.NewAtom("Flights", eq.V("x"), eq.C("Zurich"))}
	a, _ := in.SolveAll(body, 0)
	b, _ := back.SolveAll(body, 0)
	if len(a) != len(b) {
		t.Fatalf("answers differ: %d vs %d", len(a), len(b))
	}
}

func TestSaveLoadPreservesIndexes(t *testing.T) {
	dir := t.TempDir()
	in := NewInstance()
	r := in.CreateRelation("R", "a", "b")
	r.Insert("1", "x")
	r.BuildIndex(1)
	if err := in.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := back.Relation("R")
	if _, ok := rel.indexes[1]; !ok {
		t.Fatal("index on column 1 must survive the round trip")
	}
	// LoadCSV indexes every column; the manifest narrows it back down —
	// either way column 1 works through Solve.
	bnd, ok, err := back.Solve([]eq.Atom{eq.NewAtom("R", eq.V("k"), eq.C("x"))})
	if err != nil || !ok || bnd.At(0) != "1" {
		t.Fatalf("solve on reloaded index: %v %v %v", bnd, ok, err)
	}
}

// TestLoadBuildsManifestIndexesOnce: Load builds each index the
// manifest names once, after the rows, and no other — every BuildIndex
// moves the relation's version.
func TestLoadBuildsManifestIndexesOnce(t *testing.T) {
	dir := t.TempDir()
	in := NewInstance()
	r := in.CreateRelation("R", "a", "b", "c")
	r.Insert("1", "x", "p")
	r.Insert("2", "y", "p")
	r.BuildIndex(2)
	if err := in.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := back.Relation("R")
	if cols, v := rel.IndexedColumns(), rel.version.Load(); len(cols) != 1 || cols[0] != 2 || v != 1 {
		t.Fatalf("indexed columns %v after %d index builds, want [2] after 1", cols, v)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing dir must fail")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("bad manifest must fail")
	}
}

func TestSaveEmptyRelation(t *testing.T) {
	dir := t.TempDir()
	in := NewInstance()
	in.CreateRelation("Empty", "a", "b")
	if err := in.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel, ok := back.Relation("Empty")
	if !ok || rel.Len() != 0 || rel.Arity() != 2 {
		t.Fatalf("empty relation round trip: %v", rel)
	}
}
