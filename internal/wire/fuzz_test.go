package wire

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"entangled/internal/api"
)

// FuzzBinaryDecode feeds raw bytes through the full receive path —
// frame reading, header parsing, and every message decoder — asserting
// the hostile-input contract: truncated, bit-flipped, oversized, or
// garbage input yields a typed error (io.EOF, io.ErrUnexpectedEOF, or
// ErrMalformed), never a panic, hang, or unbounded allocation. The
// golden frames seed the corpus so mutations start from valid
// protocol bytes (mirroring FuzzWALReplay in internal/persist).
func FuzzBinaryDecode(f *testing.F) {
	ents, err := os.ReadDir("testdata")
	if err != nil {
		f.Fatal(err)
	}
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) != ".bin" {
			continue
		}
		data, err := os.ReadFile(filepath.Join("testdata", ent.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// A truncated and a bit-flipped variant of each golden frame.
		f.Add(data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)-1] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // oversized length
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})             // zero length

	f.Fuzz(func(t *testing.T, data []byte) {
		// The framed path: read frames until the input runs out or turns
		// malformed.
		br := bytes.NewReader(data)
		var buf []byte
		for {
			payload, err := ReadFrame(br, buf)
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrMalformed) {
					t.Fatalf("untyped frame error: %v", err)
				}
				break
			}
			buf = payload
			decodeEverything(t, payload)
		}
		// The raw path: the same payload decoders over the unframed
		// bytes, so corruption the CRC would catch still cannot panic a
		// decoder.
		decodeEverything(t, data)
	})
}

// decodeEverything runs every message decoder over the payload; each
// either succeeds or fails with a sticky typed error. The decoders are
// exercised independently (fresh Dec each) because a real connection
// picks exactly one based on the header kind.
func decodeEverything(t *testing.T, payload []byte) {
	t.Helper()
	check := func(d *Dec) {
		if err := d.Err(); err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("untyped decode error: %v", err)
		}
	}
	run := func(body func(*Dec)) {
		d := NewDec(payload)
		h := GetHeader(d)
		_ = h
		body(d)
		d.Finish()
		check(d)
	}
	// A batch decodes into a pooled slab as into fresh slices, and again
	// after Release handed the slab back.
	plain := NewDec(payload)
	GetHeader(plain)
	want := getRequests(plain, nil)
	for range 2 {
		run(func(d *Dec) {
			got := DecodeCoordinateReq(d)
			if !reflect.DeepEqual(got.Requests, want) || (d.Err() == nil) != (plain.Err() == nil) {
				t.Fatalf("pooled decode %+v (%v) != plain decode %+v (%v)", got.Requests, d.Err(), want, plain.Err())
			}
			got.Release()
		})
	}
	run(func(d *Dec) { DecodeCreateSessionReq(d) })
	run(func(d *Dec) { DecodeJoinReq(d) })
	run(func(d *Dec) { DecodeLeaveReq(d) })
	run(func(d *Dec) { DecodeStatusReq(d) })
	run(func(d *Dec) { DecodeSessionReq(d) })
	run(func(d *Dec) { DecodeForward(d) })
	run(func(d *Dec) { DecodeTenantReq(d) })
	run(func(d *Dec) { DecodePush(d) })
	run(func(d *Dec) {
		status, err := GetReply(d)
		_ = status
		var re *api.Error
		if err != nil && !errors.As(err, &re) && !errors.Is(err, ErrMalformed) {
			t.Fatalf("untyped reply error: %v", err)
		}
		// Success replies carry one of these payloads.
		GetResponses(d)
		GetUpdate(d)
		GetSessionStatus(d)
		GetHealth(d)
	})
}
