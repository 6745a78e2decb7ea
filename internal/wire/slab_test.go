package wire

import (
	"reflect"
	"testing"

	"entangled/internal/api"
	"entangled/internal/eq"
	"entangled/internal/workload"
)

// slabBatch is a coordinate batch with every nil-versus-empty case the
// JSON codec distinguishes: Post and Body absent or empty (omitempty
// makes both absent), Head and Args empty but present, and a request
// with no queries at all.
func slabBatch() CoordinateReq {
	return CoordinateReq{Requests: []api.Request{
		{ID: "fig4", Queries: workload.ListQueries(20, 8)},
		{ID: "edges", Queries: []eq.Query{
			sampleQuery(),
			{ID: "absent", Head: []eq.Atom{eq.NewAtom("R", eq.C("U3"), eq.V("z"))}},
			{ID: "empty", Post: []eq.Atom{}, Head: []eq.Atom{}, Body: []eq.Atom{}},
			{Head: []eq.Atom{{Rel: "Z", Args: []eq.Term{}}}, Body: []eq.Atom{{Rel: "T", Args: []eq.Term{}}}},
		}},
		{ID: "none", Queries: []eq.Query{}},
		{},
	}}
}

// TestReleasedBatchRedecodesEqual: a batch decoded into a pooled slab
// equals the JSON decode of the same batch, nil and empty slices alike;
// after Release hands the slab back, the same frame decodes equal again.
// Every slice is cut to its length, so an append cannot reach a
// neighbour.
func TestReleasedBatchRedecodesEqual(t *testing.T) {
	req := slabBatch()
	var viaJSON api.CoordinateRequest
	jsonRoundTrip(t, api.CoordinateRequest{Requests: req.Requests}, &viaJSON)
	var e Enc
	req.Encode(&e)
	for round := range 3 {
		d := NewDec(e.Bytes())
		got := DecodeCoordinateReq(d)
		if err := d.Finish(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(got.Requests, viaJSON.Requests) {
			t.Fatalf("round %d: binary %+v != json %+v", round, got.Requests, viaJSON.Requests)
		}
		for _, r := range got.Requests {
			for _, q := range r.Queries {
				for _, as := range [][]eq.Atom{q.Post, q.Head, q.Body} {
					for _, a := range as {
						if cap(a.Args) != len(a.Args) {
							t.Fatalf("round %d: query %q: an atom's args have room for %d more", round, q.ID, cap(a.Args)-len(a.Args))
						}
					}
					if cap(as) != len(as) {
						t.Fatalf("round %d: query %q: an atom list has room for %d more", round, q.ID, cap(as)-len(as))
					}
				}
			}
			if cap(r.Queries) != len(r.Queries) {
				t.Fatalf("round %d: request %q: its queries have room for %d more", round, r.ID, cap(r.Queries)-len(r.Queries))
			}
		}
		got.Release()
	}
}

// TestOversizedSlabIsNotPooled: a slab one batch grew past slabCap is
// left to the collector, untouched, instead of going back to the pool.
func TestOversizedSlabIsNotPooled(t *testing.T) {
	qs := workload.ListQueries(slabCap/2, 8) // six terms a query
	var e Enc
	CoordinateReq{Requests: []api.Request{{Queries: qs}}}.Encode(&e)
	got := DecodeCoordinateReq(NewDec(e.Bytes()))
	if cap(got.slab.ts) <= slabCap {
		t.Fatalf("%d queries grew the term array to %d, want past %d", len(qs), cap(got.slab.ts), slabCap)
	}
	n := len(got.slab.ts)
	got.Release()
	if len(got.slab.ts) != n || got.Requests[0].Queries[0].Head[0].Rel != "R" {
		t.Fatal("an oversized slab was cleared for the pool")
	}
}
