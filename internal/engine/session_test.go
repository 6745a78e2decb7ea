package engine

import (
	"testing"

	"entangled/internal/coord"
	"entangled/internal/stream"
	"entangled/internal/workload"
)

// TestEngineNewSession: a session opened through the engine coordinates
// over the engine's store with the engine's base options, and its
// quiesced result matches what the engine's batch path computes on the
// same queries.
func TestEngineNewSession(t *testing.T) {
	for _, shards := range []int{1, 4} {
		store := workload.NewStore(shards, 8, 0)
		e := New(store, Options{Workers: 2})
		s := e.NewSession(stream.Options{})
		for i := 0; i < 12; i++ {
			up, err := s.Join(workload.ChainQuery(i%3, i/3, 8))
			if err != nil {
				t.Fatalf("shards=%d join %d: %v", shards, i, err)
			}
			if !up.Admitted {
				t.Fatalf("shards=%d join %d not admitted: %+v", shards, i, up)
			}
		}
		got, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		want, err := coord.SCCCoordinate(s.Queries(), store, coord.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() != want.Size() || got.Size() != 4 {
			t.Fatalf("shards=%d: session team %v, batch team %v", shards, got, want)
		}
		for _, r := range []*coord.Result{got, want} {
			if err := coord.Verify(s.Queries(), r.Set, r.Values, store); err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
		}
	}
}
