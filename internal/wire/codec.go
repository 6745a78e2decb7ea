package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrMalformed is the sentinel wrapped by every decode failure; match
// with errors.Is. Decoding never panics and never allocates more than
// the input could justify — a hostile length prefix fails the bounds
// check before any allocation happens.
var ErrMalformed = errors.New("wire: malformed message")

// DecodeError reports where a payload stopped being decodable.
type DecodeError struct {
	// Offset is the byte position in the payload at which decoding
	// failed; every byte before it parsed cleanly.
	Offset int
	// Reason says what failed.
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: malformed message at offset %d: %s", e.Offset, e.Reason)
}

// Is makes errors.Is(err, ErrMalformed) true for every decode error.
func (e *DecodeError) Is(target error) bool { return target == ErrMalformed }

// Enc is an append-only encoder over a byte slice. The zero value is
// ready to use; Reset with a pooled buffer to reuse allocations across
// messages (see GetBuf/PutBuf).
type Enc struct {
	b []byte
}

// Reset points the encoder at buf (length reset to zero, capacity
// kept).
func (e *Enc) Reset(buf []byte) { e.b = buf[:0] }

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.b }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(x uint64) { e.b = binary.AppendUvarint(e.b, x) }

// Int appends a signed int as a zigzag varint.
func (e *Enc) Int(x int) { e.Int64(int64(x)) }

// Int64 appends a signed 64-bit int as a zigzag varint.
func (e *Enc) Int64(x int64) { e.b = binary.AppendVarint(e.b, x) }

// Bool appends one byte, 0 or 1.
func (e *Enc) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Byte appends one raw byte.
func (e *Enc) Byte(v byte) { e.b = append(e.b, v) }

// Raw appends bytes verbatim, no length prefix — for splicing an
// already-encoded payload (forward bodies, relayed replies) into a
// frame.
func (e *Enc) Raw(b []byte) { e.b = append(e.b, b...) }

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Float appends a float64 as 8 fixed little-endian bytes.
func (e *Enc) Float(f float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(f))
}

// Dec is a bounds-checked decoder over a payload. Errors are sticky:
// after the first failure every read returns the zero value and Err
// reports the failure, so decode code reads linearly without per-field
// error plumbing.
type Dec struct {
	b   []byte
	off int
	err *DecodeError
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{b: payload} }

// Err returns the first decode failure, or nil.
func (d *Dec) Err() error {
	if d.err == nil {
		return nil
	}
	return d.err
}

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// Finish fails the decode if any input is left over — a valid message
// consumes its payload exactly.
func (d *Dec) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.fail("trailing garbage")
	}
	return d.Err()
}

func (d *Dec) fail(reason string) {
	if d.err == nil {
		d.err = &DecodeError{Offset: d.off, Reason: reason}
	}
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return x
}

// Int reads a zigzag varint as an int.
func (d *Dec) Int() int { return int(d.Int64()) }

// Int64 reads a zigzag varint.
func (d *Dec) Int64() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return x
}

// Bool reads one byte that must be 0 or 1.
func (d *Dec) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool")
		return false
	}
}

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// String reads a length-prefixed string. The length is validated
// against the remaining payload before any allocation.
func (d *Dec) String() string {
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		d.fail(fmt.Sprintf("string length %d exceeds remaining %d bytes", n, d.Remaining()))
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Float reads 8 fixed little-endian bytes as a float64.
func (d *Dec) Float() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return f
}

// Len reads a collection length and validates it against the remaining
// payload assuming each element costs at least minBytes (1 or more) —
// so a hostile length can never drive a large allocation.
func (d *Dec) Len(minBytes int) int { return d.fits(d.Uvarint(), minBytes) }

// fits returns n when n elements of minBytes each fit in the remaining
// payload, and fails the decode otherwise.
func (d *Dec) fits(n uint64, minBytes int) int {
	if n > uint64(d.Remaining()/minBytes) {
		d.fail(fmt.Sprintf("collection of %d elements exceeds remaining %d bytes", n, d.Remaining()))
		return 0
	}
	return int(n)
}
