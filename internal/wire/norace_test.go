//go:build !race

package wire

import (
	"strconv"
	"testing"

	"entangled/internal/api"
	"entangled/internal/coord"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

// TestPooledBatchDecodeAllocatesOnlyStrings: in the steady state, decoding
// a 100-query Figure-4 batch and releasing it allocates its strings and
// nothing else — no request, query, atom or term slice. One-byte strings
// are free (the runtime keeps them), so the bar counts the longer ones,
// plus two for slack.
func TestPooledBatchDecodeAllocatesOnlyStrings(t *testing.T) {
	req := CoordinateReq{Requests: []api.Request{{ID: "fig4", Queries: workload.ListQueries(100, 64)}}}
	var e Enc
	req.Encode(&e)
	payload := e.Bytes()
	strs := 0
	count := func(s string) {
		if len(s) > 1 {
			strs++
		}
	}
	for _, r := range req.Requests {
		count(r.ID)
		for _, q := range r.Queries {
			count(q.ID)
			for _, a := range append(append(q.Post[:len(q.Post):len(q.Post)], q.Head...), q.Body...) {
				count(a.Rel)
				for _, tm := range a.Args {
					count(tm.Name)
				}
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		d := NewDec(payload)
		got := DecodeCoordinateReq(d)
		if d.Finish() != nil {
			t.Fatal(d.Err())
		}
		got.Release()
	})
	t.Logf("decode + release of 100 queries: %.0f allocations, %d strings longer than a byte", allocs, strs)
	if allocs > float64(strs+2) {
		t.Fatalf("decode + release allocates %.0f times, want at most %d strings + 2", allocs, strs)
	}
}

// TestPutResultAllocatesNothing: encoding a 50-member result of three
// variables a query into a buffer already large enough allocates
// nothing — its query indices and names are sorted on the stack.
func TestPutResultAllocatesNothing(t *testing.T) {
	r := &coord.Result{Values: map[int]map[string]eq.Value{}, DBQueries: 50}
	for q := range 50 {
		r.Set = append(r.Set, q)
		v := eq.Value("c" + strconv.Itoa(q))
		r.Values[q] = map[string]eq.Value{"x": v, "y": v, "z": v}
	}
	var e Enc
	PutResult(&e, r)
	buf := e.Bytes()
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset(buf)
		PutResult(&e, r)
	})
	if allocs != 0 {
		t.Fatalf("PutResult allocates %.1f times on a 50-member result, want 0", allocs)
	}
}
