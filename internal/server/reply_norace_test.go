//go:build !race

package server_test

import (
	"encoding/json"
	"io"
	"testing"

	"entangled/internal/api"
)

// The race detector's instrumentation allocates, so this file is not
// built under it.

// TestBatchReplyRendersWithoutAllocating: the 16 x 8 batch reply renders
// into a warmed buffer with no allocation at all. json.Encoder's
// reflective pass over the same reply, what writeJSON ran before, is
// logged beside it.
func TestBatchReplyRendersWithoutAllocating(t *testing.T) {
	_, body := batchReply(t)
	var rep api.CoordinateResponse
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	buf := rep.AppendJSON(nil)
	if n := testing.AllocsPerRun(100, func() { buf = rep.AppendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("rendering the %d-byte reply allocates %.1f times", len(buf), n)
	}
	shadow := shadowOf(rep)
	reflective := testing.AllocsPerRun(100, func() { _ = json.NewEncoder(io.Discard).Encode(shadow) })
	t.Logf("rendering the %d-byte reply: 0 allocations; json.Encoder's reflective pass: %.0f", len(buf)+1, reflective)
}
