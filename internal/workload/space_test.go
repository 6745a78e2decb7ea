//go:build !race

package workload

import (
	"runtime"
	"testing"
	"time"
)

// The race detector's instrumentation allocates, so this file is not
// built under it.

// storeCeiling is 1.10x the 1,389,600 live bytes the serving store
// measured once a relation became one slab of values and an index a
// chain of row numbers (3,447,136 before: a slice header, a tuple and a
// map bucket per row).
const storeCeiling = 1.10 * 1389600

// TestStoreSpaceCeiling holds the standing store every single-node
// coordmark workload serves — NewStore(4, 20000, 0), the 20,000-row
// T(key, val) on four shards, indexed on val — to its live-heap
// ceiling: the heap after two collections, with the store held, minus
// the heap before it was built.
func TestStoreSpaceCeiling(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	start := time.Now()
	store := NewStore(4, 20000, 0)
	built := time.Since(start)
	after := live()
	runtime.KeepAlive(store)
	delta := float64(after) - float64(before)
	t.Logf("NewStore(4, 20000): built in %v, %.0f live bytes (%.1f per row)", built, delta, delta/20000)
	if delta > storeCeiling {
		t.Errorf("NewStore(4, 20000) holds %.0f live bytes, over the %.0f B ceiling", delta, storeCeiling)
	}
}
