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

// TestCutGrowsByDoubling: a slab's array grows to twice its capacity,
// to the cut's own size when that is more, and to 64 elements at least.
func TestCutGrowsByDoubling(t *testing.T) {
	s := new(batchSlab)
	terms := func(s *batchSlab) *[]eq.Term { return &s.ts }
	for _, c := range []struct{ n, cap int }{{1, 64}, {63, 64}, {1, 128}, {300, 300}, {1, 600}} {
		if got := cut(s, terms, c.n); len(got) != c.n || cap(got) != c.n {
			t.Fatalf("a cut of %d: length %d, capacity %d", c.n, len(got), cap(got))
		}
		if cap(s.ts) != c.cap {
			t.Fatalf("after a cut of %d the array holds %d, want %d", c.n, cap(s.ts), c.cap)
		}
	}
}

// TestSlabBoundIs4096: a slab whose arrays and body levels hold 4,096
// elements each is cleared for the pool; one more on any array, or on
// any level of the body, and it is left to the collector. Each level
// counts its own elements, not its neighbours'.
func TestSlabBoundIs4096(t *testing.T) {
	for _, c := range []struct {
		cap  int
		kept bool
	}{{4096, true}, {4097, false}} {
		s := &batchSlab{reqs: make([]api.Request, 1, c.cap)}
		s.release()
		if pooled := len(s.reqs) == 0; pooled != c.kept {
			t.Errorf("a slab of %d requests: pooled %v", c.cap, pooled)
		}
	}
	// levels builds a body of r requests, q queries, a atoms (a third
	// each in post, head and body) and n terms, by capacity.
	levels := func(r, q, a, n int) *batchSlab {
		s := new(batchSlab)
		s.body.Requests = make([]api.Request, 0, r)
		s.body.Requests = append(s.body.Requests, api.Request{Queries: make([]eq.Query, 0, q)})
		atoms := func(k int) []eq.Atom { return make([]eq.Atom, 0, k) }
		qs := append(s.body.Requests[0].Queries, eq.Query{Post: atoms(a / 3), Head: atoms(a / 3), Body: atoms(a - 2*(a/3))})
		qs[0].Head = append(qs[0].Head, eq.Atom{Args: make([]eq.Term, 0, n)})
		s.body.Requests[0].Queries = qs
		return s
	}
	for _, c := range []struct {
		r, q, a, n int
		ok         bool
	}{
		{2048, 2100, 4095, 3000, true}, // any one level counted into the next goes past 4096
		{4097, 1, 3, 1, false},
		{1, 4097, 3, 1, false},
		{1, 1, 4097, 1, false},
		{1, 1, 3, 4097, false},
	} {
		if got := levels(c.r, c.q, c.a, c.n).clearBody(); got != c.ok {
			t.Errorf("%d requests, %d queries, %d atoms, %d terms: clearBody %v, want %v", c.r, c.q, c.a, c.n, got, c.ok)
		}
	}
}

// TestFreshBufferHolds4KiB: a buffer the pool makes has room for 4 KiB,
// what each end's bufio reader holds, so a frame that fits the reader
// fits the buffer.
func TestFreshBufferHolds4KiB(t *testing.T) {
	if b := bufPool.New().(*[]byte); len(*b) != 0 || cap(*b) != 4096 {
		t.Fatalf("a fresh buffer: length %d, capacity %d", len(*b), cap(*b))
	}
}
