package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"entangled/internal/api"
	"entangled/internal/eq"
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

// FuzzCoordinateBodyReuse decodes two arbitrary HTTP bodies through one
// slab, resetting it between them as release does, whether or not the
// first decoded. The second must fail as a decode into a fresh value
// fails, or equal it with zero-length slices counted as nil: a reused
// slab's one difference is that an omitted "post", "head", "body",
// "queries" or "args" comes back empty. The seeds repeat keys, fold
// their case, hold nulls and unknown fields, and shrink what the first
// body grew.
func FuzzCoordinateBodyReuse(f *testing.F) {
	full := `{"requests":[{"id":"a","queries":[{"id":"q","post":[{"rel":"P","args":["?y"]}],` +
		`"head":[{"rel":"R","args":["=U1","?x"]}],"body":[{"rel":"T","args":["?x","=c0"]}]}]},{"id":"b","queries":[]}]}`
	for _, second := range []string{
		full,
		`{"requests":[{"queries":[{"head":[{"rel":"R"}]}]}]}`,
		`{"requests":[{"id":"a","queries":[{"id":"q","head":[{"rel":"R","args":["?x"]}],"head":[{"rel":"S"}]}]}]}`,
		`{"Requests":[{"ID":"a","QUERIES":[{"Head":[{"REL":"R","Args":["=v"]}],"hEaD":[]}]}]}`,
		`{"requests":[null,{"id":null,"queries":[null,{"post":null,"head":null,"body":null}]}]}`,
		`{"requests":[{"queries":[{"head":[{"rel":"R","args":[null,"?x"]}]}]}]}`,
		`{"requests":[{"id":"a","extra":[1,2],"queries":[{"x":{"y":[]},"head":[{"rel":"R","more":null}]}]}],"other":true}`,
		`{"requests":[{"queries":[{"head":[{"rel":"R","args":["bad"]}]}]}]}`,
		`{"requests":[{"queries":"nope"}]}`,
		`{"requests":[]}`,
		`null`,
		`{"requests":[{}]} trailing`,
	} {
		f.Add([]byte(full), []byte(second))
		f.Add([]byte(second), []byte(full))
	}
	f.Fuzz(func(t *testing.T, first, second []byte) {
		var s batchSlab
		json.Unmarshal(first, &s.body) // decoded or not, the reset clears what it left
		s.clearBody()
		reused := json.Unmarshal(second, &s.body)
		var fresh api.CoordinateRequest
		want := json.Unmarshal(second, &fresh)
		if fmt.Sprint(reused) != fmt.Sprint(want) {
			t.Fatalf("reused slab: %v, fresh value: %v", reused, want)
		}
		if want == nil && !reflect.DeepEqual(nilEmpty(s.body), nilEmpty(fresh)) {
			t.Fatalf("reused slab %+v != fresh value %+v", s.body, fresh)
		}
	})
}

// nilEmpty sets every zero-length slice of b to nil, in place.
func nilEmpty(b api.CoordinateRequest) api.CoordinateRequest {
	atoms := func(as []eq.Atom) []eq.Atom {
		for i := range as {
			as[i].Args = omitEmpty(as[i].Args)
		}
		return omitEmpty(as)
	}
	for i, r := range b.Requests {
		for j, q := range r.Queries {
			r.Queries[j].Post, r.Queries[j].Head, r.Queries[j].Body = atoms(q.Post), atoms(q.Head), atoms(q.Body)
		}
		b.Requests[i].Queries = omitEmpty(r.Queries)
	}
	b.Requests = omitEmpty(b.Requests)
	return b
}
