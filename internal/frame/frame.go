package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderSize is the fixed prefix of every frame: 4-byte little-endian
// payload length, then 4-byte CRC-32 (IEEE) of the payload.
const HeaderSize = 8

// Max bounds a single payload. Mutations, events and coordination
// messages are small; a length above this is corruption or abuse, and
// rejecting it keeps a flipped length byte from asking the reader to
// allocate gigabytes.
const Max = 1 << 24

// Reason classifies why a frame could not be read.
type Reason uint8

const (
	// TornHeader: the input ended inside the 8-byte header.
	TornHeader Reason = iota + 1
	// TornPayload: the input ended inside the payload.
	TornPayload
	// BadLength: the stored length is zero or above Max.
	BadLength
	// BadCRC: the payload does not match its stored checksum.
	BadCRC
)

// Error reports an undecodable frame: the typed reason, and the text
// (byte counts, lengths, checksums) both consumers put in their own
// error types.
type Error struct {
	Reason Reason
	Detail string
}

func (e *Error) Error() string { return e.Detail }

func errorf(r Reason, format string, args ...any) *Error {
	return &Error{Reason: r, Detail: fmt.Sprintf(format, args...)}
}

// Append appends one framed payload to buf and returns it.
func Append(buf, payload []byte) []byte {
	n := len(buf)
	buf = append(append(buf, make([]byte, HeaderSize)...), payload...)
	Seal(buf[n:])
	return buf
}

// Seal fills in, in place, the header of a frame whose payload was
// written after HeaderSize reserved bytes at the start of f, and
// returns f: the frame Append writes for f[HeaderSize:], from the
// buffer the payload was encoded into.
func Seal(f []byte) []byte {
	payload := f[HeaderSize:]
	binary.LittleEndian.PutUint32(f[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[4:8], crc32.ChecksumIEEE(payload))
	return f
}

// Read reads one frame from r, reusing buf's capacity when it
// suffices, and returns the payload (valid until the next reuse of
// buf). A clean end of input between frames returns io.EOF; anything
// undecodable returns an *Error; any other read failure is returned
// as-is.
func Read(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [HeaderSize]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, errorf(TornHeader, "torn frame header (%d of %d bytes)", n, HeaderSize)
		}
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > Max {
		return nil, errorf(BadLength, "implausible frame length %d", length)
	}
	if cap(buf) < int(length) {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	if n, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, errorf(TornPayload, "torn frame payload (%d of %d bytes)", n, length)
		}
		return nil, err
	}
	if got := crc32.ChecksumIEEE(buf); got != want {
		return nil, errorf(BadCRC, "crc mismatch (stored %08x, computed %08x)", want, got)
	}
	return buf, nil
}
