package wire

import (
	"encoding/json"
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

// TestReleasedSlabHoldsNoStrings: a slab that served a frame and two HTTP
// bodies, the second shorter than the first and repeating a key, holds
// no string of either once released — up to every slice's capacity,
// where the decoder can reach again.
func TestReleasedSlabHoldsNoStrings(t *testing.T) {
	var e Enc
	slabBatch().Encode(&e)
	long, err := json.Marshal(api.CoordinateRequest{Requests: slabBatch().Requests})
	if err != nil {
		t.Fatal(err)
	}
	short := []byte(`{"requests":[{"id":"dup","queries":[{"id":"q","head":[{"rel":"R","args":["?x","=c"]}]}]}],
		"requests":[{"queries":[{"head":[{"rel":"S","args":["=d"]}]}]}]}`)
	s := new(batchSlab)
	if getRequests(NewDec(e.Bytes()), s); len(s.ts) == 0 {
		t.Fatal("the frame cut no terms")
	}
	for _, body := range [][]byte{long, short} {
		if err := json.Unmarshal(body, &s.body); err != nil {
			t.Fatal(err)
		}
	}
	if heldString(reflect.ValueOf(s)) == "" {
		t.Fatal("a decoded slab holds no string: the walk sees nothing")
	}
	s.release()
	if str := heldString(reflect.ValueOf(s)); str != "" {
		t.Fatalf("a released slab still holds %q", str)
	}
}

// heldString returns a non-empty string reachable from v, reading each
// slice up to its capacity, or "" when there is none.
func heldString(v reflect.Value) string {
	switch v.Kind() {
	case reflect.String:
		return v.String()
	case reflect.Pointer:
		if !v.IsNil() {
			return heldString(v.Elem())
		}
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		for i := range v.Len() {
			if s := heldString(v.Index(i)); s != "" {
				return s
			}
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if s := heldString(v.Field(i)); s != "" {
				return s
			}
		}
	}
	return ""
}
