//go:build !race

package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"entangled/internal/api"
)

// The race detector's instrumentation allocates, and its pools drop
// buffers at random, so this file is not built under it.

// bytesPer returns the bytes one call of f allocates, on average over
// a thousand calls after a hundred that warm the pools.
func bytesPer(f func()) uint64 {
	for range 100 {
		f()
	}
	const calls = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / calls
}

// discard is a ResponseWriter that keeps nothing but its header map.
type discard http.Header

func (d discard) Header() http.Header       { return http.Header(d) }
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) WriteHeader(int)             {}

// TestJSONBuffersGoBack: reading a request body and writing a reply
// each borrow a pooled buffer and hand it back, so neither costs the
// 4 KiB a fresh buffer would.
func TestJSONBuffersGoBack(t *testing.T) {
	body := []byte(`{"id":"s","park_unsafe":true}`)
	r := httptest.NewRequest(http.MethodPost, "/v1/sessions", nil)
	rd := bytes.NewReader(body)
	r.Body = io.NopCloser(rd)
	var v api.CreateSessionRequest
	read := bytesPer(func() {
		rd.Reset(body)
		if err := readJSON(r, &v); err != nil {
			t.Fatal(err)
		}
	})
	w := discard{}
	reply := api.CreateSessionResponse{ID: "s"}
	written := bytesPer(func() { writeJSON(w, http.StatusCreated, reply) })
	t.Logf("reading a body: %d bytes; writing a reply: %d bytes", read, written)
	if read > 2<<10 || written > 2<<10 {
		t.Fatalf("reading a body allocates %d bytes, writing a reply %d; want each under 2 KiB", read, written)
	}
}
