//go:build !race

package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"runtime"
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
	strs := longStrings(req.Requests)
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

// TestPooledHTTPDecodeAllocatesOnlyStrings: a warm slab decodes an HTTP
// batch of 16 requests of 8 queries each, the shape of coordmark's HTTP
// workload, making its strings and no slice: json.Unmarshal fills the
// released body's slices in place. The bar is the strings longer than a
// byte, plus 12 for Unmarshal's own state: the decoder, and its parse
// stack and field path, each grown to the body's nesting depth (9 at
// Go 1.24). Growing every slice one element at a time, as a fresh
// target does, costs over a thousand more.
func TestPooledHTTPDecodeAllocatesOnlyStrings(t *testing.T) {
	reqs := make([]api.Request, 16)
	for i := range reqs {
		reqs[i] = api.Request{ID: "r" + strconv.Itoa(i), Queries: workload.ListQueriesAt(8, i)}
	}
	body, err := json.Marshal(api.CoordinateRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	strs := longStrings(reqs)
	unmarshal := func(v any) error { return json.Unmarshal(body, v) }
	allocs := testing.AllocsPerRun(50, func() {
		got, err := Coordinate.FromHTTP("", "", unmarshal)
		if err != nil {
			t.Fatal(err)
		}
		got.Release()
	})
	t.Logf("HTTP decode + release of 16 x 8 queries: %.0f allocations, %d strings longer than a byte", allocs, strs)
	if allocs > float64(strs+12) {
		t.Fatalf("HTTP decode + release allocates %.0f times, want at most %d strings + 12", allocs, strs)
	}
}

// longStrings counts the strings of a batch longer than a byte: the
// runtime keeps one-byte strings, so a decode allocates only these.
func longStrings(reqs []api.Request) int {
	strs := 0
	count := func(s string) {
		if len(s) > 1 {
			strs++
		}
	}
	for _, r := range reqs {
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
	return strs
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

// TestPutBufPoolsUpToOneMiB: a buffer of up to 1 MiB of capacity goes
// back to the pool and one larger is dropped, so one huge payload pins
// nothing. The pool may lose a buffer to a collection, so a pooled one
// need only come back once in ten tries. (Not built under -race, whose
// pool drops buffers at random.)
func TestPutBufPoolsUpToOneMiB(t *testing.T) {
	back := func(c int) bool {
		for range 10 {
			b := make([]byte, 5, c)
			p := &b
			PutBuf(p)
			if q := GetBuf(); q == p {
				if len(*q) != 0 {
					t.Fatalf("a pooled buffer comes back with length %d", len(*q))
				}
				return true
			}
		}
		return false
	}
	if !back(1 << 20) {
		t.Error("a 1 MiB buffer never came back from the pool")
	}
	if back(1<<20 + 1) {
		t.Error("a buffer over 1 MiB was pooled")
	}
}

// TestCallReturnsItsBuffer: a call encodes its request into a pooled
// buffer and hands it back, so a call in the steady state allocates
// well under the 4 KiB a fresh buffer would cost. The bar is 2 KiB a
// call, the peer's reads and replies included.
func TestCallReturnsItsBuffer(t *testing.T) {
	nc, peer := net.Pipe()
	defer peer.Close()
	go func() { // the server: the magic, then an empty reply to each request
		br := bufio.NewReader(peer)
		br.Discard(len(Magic))
		var e Enc
		for {
			payload, p, err := ReadPooled(br)
			if err != nil {
				return
			}
			e.Reset(e.Bytes()[:0])
			PutHeader(&e, Header{Kind: KindReply, ID: GetHeader(NewDec(payload)).ID})
			PutReplyOK(&e, 200)
			PutBuf(p)
			if WriteFrame(peer, e.Bytes()) != nil {
				return
			}
		}
	}()
	cc := NewClientConn(nc, nil)
	defer cc.Close()
	call := func() {
		_, rep, err := cc.Call(context.Background(), KindHealth, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep.Release()
	}
	for range 100 {
		call()
	}
	const calls = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		call()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > 2<<10 {
		t.Fatalf("a call allocates %d bytes", per)
	} else {
		t.Logf("a call allocates %d bytes, the peer's share included", per)
	}
}
