//go:build !race

package engine

import (
	"context"
	"testing"
)

// TestEmptyBatchStartsNoWorker: a batch of no requests allocates
// nothing, so it starts no worker. (Not built under -race, whose
// instrumentation allocates.)
func TestEmptyBatchStartsNoWorker(t *testing.T) {
	e := New(listInstance(t), Options{Workers: 4})
	if n := testing.AllocsPerRun(20, func() { e.CoordinateMany(context.Background(), nil) }); n != 0 {
		t.Fatalf("an empty batch allocates %.0f times, want 0", n)
	}
}
