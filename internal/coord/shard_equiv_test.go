package coord

import (
	"math/rand"
	"reflect"
	"testing"

	"entangled/internal/db"
	"entangled/internal/workload"
)

// shardedWorkloadInstance builds the same T(key, val) contents as
// newWorkloadInstance on a store hash-partitioned across k shards.
func shardedWorkloadInstance(k, rows int) *db.ShardedInstance {
	sh := db.NewShardedInstance(k)
	workload.UserTableSharded(sh, rows)
	return sh
}

// Property: any safe query set yields the same coordinating set
// (team), the same step-by-step trace and the same exact DBQueries
// count on ShardedInstance{K=1,2,8} as on a plain Instance holding the
// same tuples, and every returned witness verifies against every
// store. Only the witness values may differ (choose-1 answer
// enumeration order is the one thing sharding changes).
func TestShardedEquivalentToInstance(t *testing.T) {
	const rows = 12
	rng := rand.New(rand.NewSource(42))
	plain := newWorkloadInstance(rows)
	shards := map[int]*db.ShardedInstance{}
	for _, k := range []int{1, 2, 8} {
		shards[k] = shardedWorkloadInstance(k, rows)
	}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(10)
		qs := workload.RandomSafeQueries(n, rows, 0.3, 0.7, rng)
		if !IsSafe(qs) {
			t.Fatalf("trial %d: generator produced unsafe set", trial)
		}
		var refTrace Trace
		ref, err := SCCCoordinate(qs, plain, Options{Trace: &refTrace})
		if err != nil {
			t.Fatalf("trial %d: plain: %v", trial, err)
		}
		for _, k := range []int{1, 2, 8} {
			var tr Trace
			got, err := SCCCoordinate(qs, shards[k], Options{Trace: &tr})
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if (ref == nil) != (got == nil) {
				t.Fatalf("trial %d k=%d: existence differs: plain=%v sharded=%v", trial, k, ref, got)
			}
			if !reflect.DeepEqual(refTrace, tr) {
				t.Fatalf("trial %d k=%d: traces differ:\nplain   %+v\nsharded %+v", trial, k, refTrace, tr)
			}
			if ref == nil {
				continue
			}
			if !reflect.DeepEqual(ref.Set, got.Set) {
				t.Fatalf("trial %d k=%d: teams differ: %v vs %v", trial, k, ref.Set, got.Set)
			}
			if ref.DBQueries != got.DBQueries {
				t.Fatalf("trial %d k=%d: DBQueries %d != %d", trial, k, ref.DBQueries, got.DBQueries)
			}
			// Witness values may legitimately differ; each must verify
			// on its own store and on the other one (same tuples).
			if err := Verify(qs, got.Set, got.Values, shards[k]); err != nil {
				t.Fatalf("trial %d k=%d: sharded witness fails on sharded store: %v", trial, k, err)
			}
			if err := Verify(qs, got.Set, got.Values, plain); err != nil {
				t.Fatalf("trial %d k=%d: sharded witness fails on plain store: %v", trial, k, err)
			}
			if err := Verify(qs, ref.Set, ref.Values, shards[k]); err != nil {
				t.Fatalf("trial %d k=%d: plain witness fails on sharded store: %v", trial, k, err)
			}
		}
	}
}

// The brute-force oracles must agree across stores too: existence and
// maximum size are order-independent.
func TestShardedBruteForceEquivalence(t *testing.T) {
	const rows = 8
	rng := rand.New(rand.NewSource(5))
	plain := newWorkloadInstance(rows)
	sh := shardedWorkloadInstance(4, rows)
	for trial := 0; trial < 15; trial++ {
		qs := workload.RandomSafeQueries(1+rng.Intn(7), rows, 0.3, 0.7, rng)
		wantEx, err := BruteForceExists(qs, plain)
		if err != nil {
			t.Fatal(err)
		}
		gotEx, err := BruteForceExists(qs, sh)
		if err != nil {
			t.Fatal(err)
		}
		if wantEx != gotEx {
			t.Fatalf("trial %d: exists %v != %v", trial, wantEx, gotEx)
		}
		want, err := BruteForceMax(qs, plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BruteForceMax(qs, sh)
		if err != nil {
			t.Fatal(err)
		}
		if want.Size() != got.Size() {
			t.Fatalf("trial %d: max size %d != %d", trial, want.Size(), got.Size())
		}
		if want != nil && want.DBQueries != got.DBQueries {
			t.Fatalf("trial %d: DBQueries %d != %d", trial, want.DBQueries, got.DBQueries)
		}
		if got != nil {
			if err := Verify(qs, want.Set, want.Values, plain); err != nil {
				t.Fatalf("trial %d: plain brute witness: %v", trial, err)
			}
			if err := Verify(qs, got.Set, got.Values, sh); err != nil {
				t.Fatalf("trial %d: sharded brute witness: %v", trial, err)
			}
		}
	}
}
