//go:build !race

package api

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"entangled/internal/stream"
	"entangled/internal/workload"
)

// The race detector's instrumentation allocates, so this file is not
// built under it.

// bytesPerRun is the heap f allocates per call, averaged over runs.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // encoding/json caches a type's field table the first time
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestQueryJSONAllocationBar holds the JSON edge to what one reflective
// pass costs. The request is coordmark's batch_http_small call, 16
// requests of 8 Figure-4 list queries (22.5 KB of JSON): it encoded in
// 99.4 KB and decoded in 331.1 KB while Term, Atom and Query each were
// a json.Marshaler and json.Unmarshaler — every level a nested
// Marshal, or a fresh decode state that scanned its bytes again — and
// does in 20.1 KB and 67.7 KB as field tags. The event is a journalled
// join, what persist appends and replays per session event: 4.58 KB
// there and back then, 1.89 KB now. The bars are 1.15x the readings.
func TestQueryJSONAllocationBar(t *testing.T) {
	reqs := make([]Request, 16)
	for r := range reqs {
		reqs[r] = Request{ID: "r" + strconv.Itoa(r), Queries: workload.ListQueriesAt(8, r)}
	}
	in := CoordinateRequest{Requests: reqs}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var back CoordinateRequest
	if err := json.Unmarshal(data, &back); err != nil || !reflect.DeepEqual(back, in) {
		t.Fatalf("request round trip: %v", err)
	}
	ev := stream.Event{Kind: stream.JoinEvent, Query: workload.ChainQuery(0, 3, 32)}

	for _, bar := range []struct {
		what string
		kb   float64
		f    func()
	}{
		{"encoding the 16 x 8 request", 24, func() { _, _ = json.Marshal(in) }},
		{"decoding the 16 x 8 request", 78, func() {
			var back CoordinateRequest
			_ = json.Unmarshal(data, &back)
		}},
		{"a journalled join, there and back", 2.2, func() {
			frame, _ := json.Marshal(ev)
			var back stream.Event
			_ = json.Unmarshal(frame, &back)
		}},
	} {
		got := bytesPerRun(200, bar.f) / 1024
		t.Logf("%s: %.2f KB", bar.what, got)
		if got > bar.kb {
			t.Errorf("%s allocates %.2f KB, over the %.2f KB bar", bar.what, got, bar.kb)
		}
	}
}
