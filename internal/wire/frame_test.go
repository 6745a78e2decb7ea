package wire

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"entangled/internal/frame"
)

// WriteFrame writes payload to w as one frame, the way the hand-driven
// peers of these tests answer a ClientConn.
func WriteFrame(w io.Writer, payload []byte) error {
	_, err := w.Write(frame.Append(nil, payload))
	return err
}

// TestFrameEncodedInPlace: a frame EncodeFrame encodes into a buffer
// that held a longer frame before is exactly the golden frame
// frame.Append writes for the same header and body, and a payload over
// MaxFrame is refused.
func TestFrameEncodedInPlace(t *testing.T) {
	golden, err := filepath.Glob(filepath.Join("testdata", "*.bin"))
	if err != nil || len(golden) == 0 {
		t.Fatalf("golden frames: %v %v", golden, err)
	}
	used := bytes.Repeat([]byte{0xee}, 64<<10) // a pooled buffer's stale bytes
	for _, path := range golden {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(bytes.NewReader(want), nil)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDec(payload)
		h := GetHeader(d)
		body := payload[len(payload)-d.Remaining():]
		got, err := EncodeFrame(used, h, func(e *Enc) { e.Raw(body) })
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: in-place frame %x (%v), want %x", path, got, err, want)
		}
	}

	big := make([]byte, MaxFrame)
	if _, err := EncodeFrame(nil, Header{Kind: KindCoordinate, ID: 1}, func(e *Enc) { e.Raw(big) }); err == nil {
		t.Fatalf("a payload of a header and %d bytes encoded", MaxFrame)
	}
}
