package frame

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// readAll drains data through Read, returning the payloads, the bytes
// they covered, and the error that ended the loop.
func readAll(data []byte) (payloads [][]byte, valid int, err error) {
	r := bytes.NewReader(data)
	var buf []byte
	for {
		buf, err = Read(r, buf)
		if err != nil {
			return payloads, valid, err
		}
		payloads = append(payloads, bytes.Clone(buf))
		valid += HeaderSize + len(buf)
	}
}

func TestReadReasons(t *testing.T) {
	good := Append(Append(nil, []byte("alpha")), []byte("beta"))
	first := HeaderSize + len("alpha")
	huge := bytes.Clone(good)
	huge[first+3] = 0x7f
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	for _, tc := range []struct {
		name   string
		data   []byte
		reason Reason
		text   string
	}{
		{"torn header", good[:first+3], TornHeader, "torn frame header (3 of 8 bytes)"},
		{"torn payload", good[:len(good)-1], TornPayload, "torn frame payload (3 of 4 bytes)"},
		{"empty payload", Append(bytes.Clone(good[:first]), nil), BadLength, "implausible frame length 0"},
		{"huge length", huge, BadLength, "implausible frame length 2130706436"},
		{"bit flip", flipped, BadCRC, ""},
	} {
		payloads, valid, err := readAll(tc.data)
		var fe *Error
		if !errors.As(err, &fe) || fe.Reason != tc.reason {
			t.Fatalf("%s: error %v, want reason %d", tc.name, err, tc.reason)
		}
		if tc.text != "" && fe.Error() != tc.text {
			t.Fatalf("%s: text %q, want %q", tc.name, fe.Error(), tc.text)
		}
		if len(payloads) != 1 || string(payloads[0]) != "alpha" || valid != first {
			t.Fatalf("%s: delivered %q over %d bytes before failing", tc.name, payloads, valid)
		}
	}
	if payloads, valid, err := readAll(good); err != io.EOF || len(payloads) != 2 || valid != len(good) {
		t.Fatalf("clean input: %q, %d bytes, %v", payloads, valid, err)
	}
}

// FuzzRead throws arbitrary bytes at the one frame reader both the WAL
// and the wire protocol sit on: it never panics, ends only with io.EOF
// or a typed *Error, and the frames it delivered re-encode to exactly
// the prefix it consumed — nothing invented, nothing half-applied.
func FuzzRead(f *testing.F) {
	good := Append(Append(nil, []byte(`{"k":"c"}`)), []byte{1, 2, 3})
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-2])
	f.Add(good[:5])
	f.Add(append(bytes.Clone(good), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, valid, err := readAll(data)
		var fe *Error
		if err != io.EOF && !errors.As(err, &fe) {
			t.Fatalf("raw bytes produced an untyped error: %v", err)
		}
		if err == io.EOF && valid != len(data) {
			t.Fatalf("clean end after %d of %d bytes", valid, len(data))
		}
		var again []byte
		for _, p := range payloads {
			again = Append(again, p)
		}
		if !bytes.Equal(again, data[:valid]) {
			t.Fatalf("re-encoded frames differ from the %d-byte prefix consumed", valid)
		}
	})
}
