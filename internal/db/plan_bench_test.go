package db

import (
	"fmt"
	"strconv"
	"testing"

	"entangled/internal/eq"
	"entangled/internal/unify"
)

// The BenchmarkSolveCompiled* family isolates the evaluation layer: a
// query stream through compiled plans with no coordination-algorithm
// overhead around it. The "seed" mode these once carried is a concluded
// ablation (DESIGN.md, "Seed evaluator vs. compiled plans"); the
// sub-benchmark keeps the name "compiled" so trajectories line up.

func benchTable(rows int, indexed bool) *Instance {
	in := NewInstance()
	r := in.CreateRelation("T", "key", "val")
	for i := 0; i < rows; i++ {
		r.Insert(eq.Value("t"+strconv.Itoa(i)), eq.Value("c"+strconv.Itoa(i)))
	}
	if indexed {
		r.BuildIndex(1)
	}
	return in
}

// BenchmarkSolveCompiledIndexed: the Figure 4 point shape — one atom,
// constant on an indexed column.
func BenchmarkSolveCompiledIndexed(b *testing.B) {
	in := benchTable(20000, true)
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body := []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C(eq.Value("c"+strconv.Itoa(i%20000))))}
			if _, ok, err := in.Solve(body); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
}

// BenchmarkSolveCompiledScan: the same shape with no index.
func BenchmarkSolveCompiledScan(b *testing.B) {
	in := benchTable(2000, false)
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body := []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C(eq.Value("c"+strconv.Itoa(i%2000))))}
			if _, ok, err := in.Solve(body); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
}

// BenchmarkSolveCompiledSharded: routed point queries on an 8-way
// hash-partitioned relation (bind-time part narrowing + per-part probe
// resolution).
func BenchmarkSolveCompiledSharded(b *testing.B) {
	sh := NewShardedInstance(8)
	r := sh.CreateRelation("T", 1, "key", "val")
	for i := 0; i < 20000; i++ {
		r.Insert(eq.Value("t"+strconv.Itoa(i)), eq.Value("c"+strconv.Itoa(i)))
	}
	r.BuildIndex(1)
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body := []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C(eq.Value("c"+strconv.Itoa(i%20000))))}
			if _, ok, err := sh.Solve(body); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
}

// solveUnderFixture is the coordination hot loop's shape: one body of
// the given number of atoms, two variables an atom, and 64
// substitutions that each pin every atom's indexed column and leave its
// other variable to the database: an answer binds one slot an atom.
func solveUnderFixture(tb testing.TB, atoms int) (in *Instance, body []eq.Atom, subs []*unify.Subst) {
	in = benchTable(20000, true)
	body = make([]eq.Atom, atoms)
	for i := range body {
		body[i] = eq.NewAtom("T", eq.V(fmt.Sprintf("x%d", i)), eq.V(fmt.Sprintf("v%d", i)))
	}
	subs = make([]*unify.Subst, 64)
	for si := range subs {
		// x<i> is variable i and v<i> variable atoms+i.
		s := unify.New()
		s.Reset(2 * atoms)
		terms := make([]int32, 0, 2*atoms)
		for i := 0; i < atoms; i++ {
			if err := s.Bind(int32(atoms+i), eq.Value("c"+strconv.Itoa((si*atoms+i)%20000))); err != nil {
				tb.Fatal(err)
			}
			terms = append(terms, int32(i), int32(atoms+i))
		}
		s.SetTerms(terms)
		subs[si] = s
	}
	return in, body, subs
}

// BenchmarkSolveCompiledSolveUnder: the coordination hot loop — the
// same 10-atom body shape re-issued under substitutions that pin its
// variables (terms are resolved at bind time; no body is rewritten).
// "compiled" keeps every answer, one frame each; "released" hands each
// back, as the section-4 walk does, and allocates nothing. Both time a
// warm plan and, for "released", a warm frame pool, so even a 1x run
// reports the steady state.
func BenchmarkSolveCompiledSolveUnder(b *testing.B) {
	in, body, subs := solveUnderFixture(b, 10)
	for _, release := range []bool{false, true} {
		name := map[bool]string{false: "compiled", true: "released"}[release]
		b.Run(name, func(b *testing.B) {
			if warm, _, _ := in.SolveUnder(body, subs[0]); release {
				warm.Release()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bind, ok, err := in.SolveUnder(body, subs[i%len(subs)])
				if err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
				if release {
					bind.Release()
				}
			}
		})
	}
}
