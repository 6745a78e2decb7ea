package wire

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"entangled/internal/frame"
)

// Magic is the 4-byte connection preamble a client sends immediately
// after dialing ("Entangled Wire Protocol v1"). It lets a server reject
// a stray HTTP client (or any other protocol) with a clean error before
// any frame parsing, and gives a protocol-sniffing accept loop an
// unambiguous discriminator: no HTTP method starts with these bytes.
const Magic = "EWP1"

// MaxFrame bounds a single payload: the frame layer's cap, which the
// HTTP adapter also applies to request bodies so both protocols refuse
// the same sizes.
const MaxFrame = frame.Max

// bufPool recycles encode/decode buffers across frames, so a busy
// connection's steady state allocates nothing on the framing path.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

// GetBuf borrows a pooled byte slice (length zero).
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns a borrowed slice to the pool. Oversized buffers are
// dropped so one huge payload does not pin its memory forever.
func PutBuf(b *[]byte) {
	if cap(*b) > 1<<20 {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// ReadPooled reads one frame from r into a GetBuf buffer borrowed for
// it alone and returns the payload and the buffer, which goes back to
// PutBuf once nothing reads the payload; a failed read returns none.
// Both ends read through a bufio.NewReader, whose 4 KiB (what net/http
// gives a connection) a larger payload bypasses.
func ReadPooled(r io.Reader) (payload []byte, p *[]byte, err error) {
	p = GetBuf()
	if *p, err = ReadFrame(r, *p); err != nil {
		return nil, nil, err
	}
	return *p, p, nil
}

// ReadBody reads an HTTP body of Content-Length size (-1: unknown) into
// *p, a GetBuf buffer, and returns it. Past MaxFrame bytes it fails with
// a *DecodeError, as the frame layer refuses such a payload.
func ReadBody(r io.Reader, p *[]byte, size int64) ([]byte, error) {
	b := bytes.NewBuffer(*p)
	if size > 0 && size <= MaxFrame {
		b.Grow(int(size) + bytes.MinRead) // with less to spare ReadFrom doubles the buffer to find EOF
	}
	n, err := b.ReadFrom(io.LimitReader(r, MaxFrame+1))
	if *p = b.Bytes(); err == nil && n > MaxFrame {
		err = &DecodeError{Reason: fmt.Sprintf("body of more than %d bytes", MaxFrame)}
	}
	return *p, err
}

// EncodeFrame encodes one frame into buf (length reset, capacity kept)
// and returns it: a header's room, h, what put appends, then the length
// and CRC filled in over that room, so the frame is written from the
// buffer its payload was encoded into. A payload over MaxFrame is
// refused; the buffer is returned either way, for the pool.
func EncodeFrame(buf []byte, h Header, put func(*Enc)) ([]byte, error) {
	e := Enc{b: append(buf[:0], make([]byte, frame.HeaderSize)...)}
	PutHeader(&e, h)
	if put != nil {
		put(&e)
	}
	if n := len(e.b) - frame.HeaderSize; n > MaxFrame {
		return e.b, fmt.Errorf("wire: frame payload of %d bytes exceeds the %d-byte cap", n, MaxFrame)
	}
	return frame.Seal(e.b), nil
}

// ReadFrame reads one frame from r, reusing buf's capacity when it
// suffices, and returns the payload (valid until the next reuse of
// buf). A clean EOF between frames returns io.EOF; a torn header or
// payload returns io.ErrUnexpectedEOF; an implausible length or a CRC
// mismatch returns a *DecodeError (errors.Is ErrMalformed).
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	payload, err := frame.Read(r, buf)
	if fe, bad := err.(*frame.Error); bad {
		switch fe.Reason {
		case frame.TornHeader, frame.TornPayload:
			return nil, io.ErrUnexpectedEOF
		case frame.BadCRC:
			return nil, &DecodeError{Reason: "frame " + fe.Error()}
		}
		return nil, &DecodeError{Reason: fe.Error()}
	}
	return payload, err
}
