package graph

import (
	"strings"
	"testing"
)

func TestWriteDOT(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "coordination", []string{"qC", "qG", ""}); err != nil {
		t.Fatal(err)
	}
	// The empty label falls back to the node number.
	want := `digraph "coordination" {
  n0 [label="qC"];
  n1 [label="qG"];
  n2 [label="2"];
  n0 -> n1;
  n1 -> n2;
}
`
	if out := sb.String(); out != want {
		t.Fatalf("got:\n%s\nwant:\n%s", out, want)
	}
}

func TestWriteDOTDefaults(t *testing.T) {
	g := New(1)
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `digraph "G"`) {
		t.Fatalf("default name: %s", sb.String())
	}
	// Deterministic output.
	var sb2 strings.Builder
	_ = g.WriteDOT(&sb2, "", nil)
	if sb.String() != sb2.String() {
		t.Fatal("DOT output must be deterministic")
	}
}
