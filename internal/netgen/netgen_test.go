package netgen

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestChain(t *testing.T) {
	g := Chain(4)
	if g.M() != 3 {
		t.Fatalf("edges = %d", g.M())
	}
	for i := 0; i < 3; i++ {
		if !slices.Contains(g.Succ(i), i+1) {
			t.Fatalf("missing edge %d->%d", i, i+1)
		}
	}
	if len(g.Succ(3)) != 0 {
		t.Fatal("last node has no successor")
	}
	if Chain(0).N() != 0 || Chain(1).M() != 0 {
		t.Fatal("degenerate chains")
	}
}

func TestComplete(t *testing.T) {
	g := Complete(4)
	if g.M() != 12 {
		t.Fatalf("edges = %d, want n(n-1)", g.M())
	}
	for i := 0; i < 4; i++ {
		if slices.Contains(g.Succ(i), i) {
			t.Fatal("no self loops")
		}
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(5)
	if g.M() != 5 {
		t.Fatalf("edges = %d", g.M())
	}
	if !g.StronglyConnected() {
		t.Fatal("cycle is strongly connected")
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := BarabasiAlbert(200, 2, rng)
	if g.N() != 200 {
		t.Fatalf("n = %d", g.N())
	}
	// Node v >= m attaches exactly m edges; earlier nodes fewer.
	for v := 2; v < 200; v++ {
		if len(g.Succ(v)) != 2 {
			t.Fatalf("node %d out-degree %d, want 2", v, len(g.Succ(v)))
		}
	}
	if len(g.Succ(0)) != 0 || len(g.Succ(1)) != 1 {
		t.Fatalf("seed degrees: %d %d", len(g.Succ(0)), len(g.Succ(1)))
	}
}

func TestBarabasiAlbertHeavyTail(t *testing.T) {
	// Preferential attachment concentrates in-degree: the maximum
	// in-degree must far exceed the mean (a loose heavy-tail check that
	// holds for any seed at this size).
	rng := rand.New(rand.NewSource(72))
	g := BarabasiAlbert(2000, 3, rng)
	deg := make([]int, g.N())
	for u := range deg {
		for _, v := range g.Succ(u) {
			deg[v]++
		}
	}
	max, sum := 0, 0
	for _, d := range deg {
		if d > max {
			max = d
		}
		sum += d
	}
	mean := float64(sum) / float64(len(deg))
	if float64(max) < 8*mean {
		t.Fatalf("max in-degree %d vs mean %.2f: no heavy tail", max, mean)
	}
}

func TestBarabasiAlbertNoSelfLoopsNoDups(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := BarabasiAlbert(300, 3, rng)
	for u := 0; u < g.N(); u++ {
		if slices.Contains(g.Succ(u), u) {
			t.Fatalf("self loop at %d", u)
		}
		// New nodes only attach to earlier nodes.
		for _, v := range g.Succ(u) {
			if v >= u {
				t.Fatalf("edge %d->%d goes forward", u, v)
			}
		}
	}
}

func TestBarabasiAlbertPanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("m=0 must panic")
		}
	}()
	BarabasiAlbert(10, 0, rand.New(rand.NewSource(1)))
}

func TestErdosRenyi(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	g0 := ErdosRenyi(20, 0, rng)
	if g0.M() != 0 {
		t.Fatal("p=0 gives no edges")
	}
	g1 := ErdosRenyi(20, 1, rng)
	if g1.M() != 20*19 {
		t.Fatalf("p=1 gives all edges, got %d", g1.M())
	}
}

// Property: BA graphs are always acyclic (edges point backward), so the
// condensation equals the graph itself.
func TestQuickBAAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	f := func() bool {
		n := 2 + rng.Intn(60)
		m := 1 + rng.Intn(3)
		g := BarabasiAlbert(n, m, rng)
		_, ncomp := g.SCC()
		return ncomp == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
