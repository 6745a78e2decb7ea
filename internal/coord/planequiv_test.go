package coord

import (
	"math/rand"
	"reflect"
	"testing"

	"entangled/internal/db"
	"entangled/internal/db/dbtest"
	"entangled/internal/workload"
)

// Property: the compiled-plan evaluation path is invisible at the
// coordination level. For random safe query sets on a plain instance
// and on ShardedInstance{K=1,2,8}, SCCCoordinate with compiled plans
// returns the same team, the same step-by-step trace and the same
// exact Result.DBQueries as with the seed's backtracking evaluator
// (dbtest.Oracle over a second copy of the tuples), and every witness
// verifies everywhere. Only witness values may differ (choose-1
// enumeration order is not part of the contract).
func TestCompiledPlansEquivalentAtCoordLevel(t *testing.T) {
	const rows = 12
	rng := rand.New(rand.NewSource(7))

	type storePair struct {
		name     string
		compiled db.Store
		seed     db.Store
	}
	var pairs []storePair
	{
		c := newWorkloadInstance(rows)
		s := dbtest.New(newWorkloadInstance(rows))
		pairs = append(pairs, storePair{"plain", c, s})
	}
	for _, k := range []int{1, 2, 8} {
		c := shardedWorkloadInstance(k, rows)
		s := dbtest.NewSharded(shardedWorkloadInstance(k, rows))
		pairs = append(pairs, storePair{"k=" + string(rune('0'+k)), c, s})
	}

	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(10)
		qs := workload.RandomSafeQueries(n, rows, 0.3, 0.7, rng)
		for _, pr := range pairs {
			var trC, trS Trace
			got, err := SCCCoordinate(qs, pr.compiled, Options{Trace: &trC})
			if err != nil {
				t.Fatalf("trial %d %s compiled: %v", trial, pr.name, err)
			}
			want, err := SCCCoordinate(qs, pr.seed, Options{Trace: &trS})
			if err != nil {
				t.Fatalf("trial %d %s seed: %v", trial, pr.name, err)
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("trial %d %s: existence differs: compiled=%v seed=%v", trial, pr.name, got, want)
			}
			if !reflect.DeepEqual(trC, trS) {
				t.Fatalf("trial %d %s: traces differ:\ncompiled %+v\nseed     %+v", trial, pr.name, trC, trS)
			}
			if got == nil {
				continue
			}
			if !reflect.DeepEqual(got.Set, want.Set) {
				t.Fatalf("trial %d %s: teams differ: %v vs %v", trial, pr.name, got.Set, want.Set)
			}
			if got.DBQueries != want.DBQueries {
				t.Fatalf("trial %d %s: DBQueries %d != %d", trial, pr.name, got.DBQueries, want.DBQueries)
			}
			// Witness values may differ; each must verify on both paths'
			// stores (identical tuples).
			if err := Verify(qs, got.Set, got.Values, pr.compiled); err != nil {
				t.Fatalf("trial %d %s: compiled witness fails on compiled store: %v", trial, pr.name, err)
			}
			if err := Verify(qs, got.Set, got.Values, pr.seed); err != nil {
				t.Fatalf("trial %d %s: compiled witness fails on seed store: %v", trial, pr.name, err)
			}
			if err := Verify(qs, want.Set, want.Values, pr.compiled); err != nil {
				t.Fatalf("trial %d %s: seed witness fails on compiled store: %v", trial, pr.name, err)
			}
		}
	}
}
