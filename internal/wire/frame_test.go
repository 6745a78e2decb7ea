package wire

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

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

// firstRoom records how much room the first Read of a body is offered.
type firstRoom struct {
	r    io.Reader
	room int
}

func (f *firstRoom) Read(p []byte) (int, error) {
	if f.room == 0 {
		f.room = len(p)
	}
	return f.r.Read(p)
}

// zeros is an endless body of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestReadBodyPresizesAtMost64KiB: ReadBody sizes its buffer for the
// declared length up front, so a body the benchmark sends arrives in
// one read with room to see EOF. It sizes for 64 KiB at most: a client
// that declares MaxFrame and sends one byte leaves a buffer under
// 128 KiB, not MaxFrame. A body of MaxFrame bytes reads whole, one byte
// more fails as the frame layer fails it, and a read error is the
// reader's.
func TestReadBodyPresizesAtMost64KiB(t *testing.T) {
	for _, c := range []struct {
		declared       int64
		body           int
		minRoom, under int
	}{
		{20000, 20000, 20000 + bytes.MinRead, 1 << 16},
		{MaxFrame, 1, 1<<16 + bytes.MinRead, 1 << 17},
		{-1, 1, 1, 1 << 13}, // unknown: the pooled 4 KiB serves
	} {
		p := make([]byte, 0, 4<<10) // a fresh GetBuf buffer
		r := &firstRoom{r: bytes.NewReader(make([]byte, c.body))}
		got, err := ReadBody(r, &p, c.declared)
		if err != nil || len(got) != c.body || r.room < c.minRoom || cap(got) >= c.under {
			t.Errorf("declared %d, sent %d: read %d bytes (%v), first read offered %d, want at least %d; capacity %d, want under %d",
				c.declared, c.body, len(got), err, r.room, c.minRoom, cap(got), c.under)
		}
	}
	var p []byte
	if got, err := ReadBody(io.LimitReader(zeros{}, MaxFrame), &p, -1); err != nil || len(got) != MaxFrame {
		t.Errorf("a body of MaxFrame bytes: %d bytes, %v", len(got), err)
	}
	p = p[:0]
	if got, err := ReadBody(zeros{}, &p, -1); !errors.Is(err, ErrMalformed) || len(got) != MaxFrame+1 {
		t.Errorf("an endless body: %d bytes, %v; want MaxFrame+1 and ErrMalformed", len(got), err)
	}
	torn := errors.New("torn")
	if _, err := ReadBody(io.MultiReader(bytes.NewReader([]byte("{")), iotest.ErrReader(torn)), &p, 2); err != torn {
		t.Errorf("a body whose read fails: %v, want %v", err, torn)
	}
}
