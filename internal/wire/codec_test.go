package wire

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestDecErrors pins each Dec failure to its offset and reason: the
// first failure is the one reported, and every read after it returns
// the zero value without moving.
func TestDecErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		read func(*Dec)
		want string // "" for a clean decode
	}{
		{"exact", []byte{1, 2}, func(d *Dec) { d.Byte(); d.Byte() }, ""},
		{"trailing", []byte{1, 2, 3}, func(d *Dec) { d.Byte() }, "wire: malformed message at offset 1: trailing garbage"},
		{"first wins", []byte{7, 2}, func(d *Dec) { d.Bool(); d.Byte(); d.Byte() }, "wire: malformed message at offset 1: bad bool"},
		{"bool 1", []byte{1}, func(d *Dec) {
			if !d.Bool() {
				d.fail("1 read false")
			}
		}, ""},
		{"bool 0", []byte{0}, func(d *Dec) {
			if d.Bool() {
				d.fail("0 read true")
			}
		}, ""},
		{"uvarint", nil, func(d *Dec) { d.Uvarint() }, "wire: malformed message at offset 0: bad uvarint"},
		{"varint", []byte{0x80}, func(d *Dec) { d.Int64() }, "wire: malformed message at offset 0: bad varint"},
		{"byte", nil, func(d *Dec) { d.Byte() }, "wire: malformed message at offset 0: truncated"},
		{"string", []byte{4, 'a', 'b', 'c'}, func(d *Dec) { _ = d.String() }, "wire: malformed message at offset 1: string length 4 exceeds remaining 3 bytes"},
		{"string fits", []byte{3, 'a', 'b', 'c'}, func(d *Dec) {
			if d.String() != "abc" {
				d.fail("not abc")
			}
		}, ""},
		{"float", make([]byte, 7), func(d *Dec) { d.Float() }, "wire: malformed message at offset 0: truncated float"},
		{"float fits", make([]byte, 8), func(d *Dec) { d.Float() }, ""},
		{"len of ones", []byte{3, 0, 0, 0}, func(d *Dec) {
			if d.Len(0) != 3 {
				d.fail("not 3")
			}
			d.Byte()
			d.Byte()
			d.Byte()
		}, ""},
		{"len over ones", []byte{4, 0, 0, 0}, func(d *Dec) { d.Len(0) }, "wire: malformed message at offset 1: collection of 4 elements exceeds remaining 3 bytes"},
		{"len of pairs", []byte{2, 0, 0, 0, 0}, func(d *Dec) {
			if d.Len(2) != 2 {
				d.fail("not 2")
			}
			d.Float() // fails: 4 bytes left
		}, "wire: malformed message at offset 1: truncated float"},
		{"len over pairs", []byte{3, 0, 0, 0, 0}, func(d *Dec) { d.Len(2) }, "wire: malformed message at offset 1: collection of 3 elements exceeds remaining 4 bytes"},
		{"len bad count", nil, func(d *Dec) { d.Len(1) }, "wire: malformed message at offset 0: bad uvarint"},
	} {
		d := NewDec(c.in)
		c.read(d)
		err := d.Finish()
		got := ""
		if err != nil {
			got = err.Error()
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("%s: %v is not ErrMalformed", c.name, err)
			}
		}
		if got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

// TestDecIsStickyAfterAFailure: once a read fails, every read returns
// the zero value, whatever bytes are left, and the offset stays put.
func TestDecIsStickyAfterAFailure(t *testing.T) {
	var e Enc
	e.Uvarint(9)
	e.Int64(-9)
	e.String("s")
	e.Float(1.5)
	e.Byte(1)
	d := NewDec(append([]byte{2}, e.Bytes()...))
	d.Bool() // fails: 2 is no bool
	rest := d.Remaining()
	if d.Uvarint() != 0 || d.Int64() != 0 || d.String() != "" || d.Float() != 0 || d.Byte() != 0 || d.Len(1) != 0 || d.Remaining() != rest {
		t.Fatalf("reads after a failure: not zero, or the offset moved from %d to %d", rest, d.Remaining())
	}
	if err := d.Err(); err == nil || err.Error() != "wire: malformed message at offset 1: bad bool" {
		t.Fatalf("Err = %v", err)
	}
}

// TestFailedReadReturnsZero: the read that fails returns the zero value.
func TestFailedReadReturnsZero(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		read func(*Dec) any
	}{
		{"uvarint", []byte{0x80}, func(d *Dec) any { return d.Uvarint() }},
		{"varint", []byte{0x80}, func(d *Dec) any { return d.Int64() }},
		{"byte", nil, func(d *Dec) any { return d.Byte() }},
		{"float", make([]byte, 7), func(d *Dec) any { return d.Float() }},
		{"len", []byte{5, 0}, func(d *Dec) any { return d.Len(1) }},
	} {
		d := NewDec(c.in)
		if v := c.read(d); d.Err() == nil || !reflect.ValueOf(v).IsZero() {
			t.Errorf("%s on %v: %v with error %v, want the zero value and an error", c.name, c.in, v, d.Err())
		}
	}
}

// TestEncRoundTrips: what Enc writes, Dec reads back.
func TestEncRoundTrips(t *testing.T) {
	var e Enc
	e.Reset(make([]byte, 3, 64))
	if len(e.Bytes()) != 0 || cap(e.Bytes()) != 64 {
		t.Fatalf("Reset: len %d cap %d, want 0 and the buffer's 64", len(e.Bytes()), cap(e.Bytes()))
	}
	e.Uvarint(math.MaxUint64)
	e.Int(-300)
	e.Int64(math.MinInt64)
	e.Bool(true)
	e.Bool(false)
	e.Byte(0xfe)
	e.Raw([]byte("raw"))
	e.String("héllo")
	e.Float(-2.25)
	d := NewDec(e.Bytes())
	if d.Uvarint() != math.MaxUint64 || d.Int() != -300 || d.Int64() != math.MinInt64 || !d.Bool() || d.Bool() || d.Byte() != 0xfe ||
		d.Byte() != 'r' || d.Byte() != 'a' || d.Byte() != 'w' || d.String() != "héllo" || d.Float() != -2.25 {
		t.Fatalf("round trip differs, err %v", d.Err())
	}
	if err := d.Finish(); err != nil || d.Err() != nil {
		t.Fatal(err)
	}
}
