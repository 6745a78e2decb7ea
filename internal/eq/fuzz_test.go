package eq

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParseSet checks that the parser never panics and that whatever it
// accepts survives a Format -> Parse round trip. Run with
// `go test -fuzz=FuzzParseSet ./internal/eq` for continuous fuzzing; the
// seed corpus runs under plain `go test`.
func FuzzParseSet(f *testing.F) {
	seeds := []string{
		"",
		"query q { head: R(x) }",
		"query q { post: R(A, x) head: R(B, x) body: T(x, 'two words') }",
		"query a { head: R(x) }\nquery b { head: R(y) }",
		"query q { body: true head: R(x) }",
		"# comment\nquery q { head: R(101, x) }",
		"query q { head: R(x }",
		"query q { weird: R(x) }",
		"query { }",
		"query q { head: R() }",
		"query 0{", // ended inside a query: once read past the last token
		"query q { head: R('\xe3') }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		qs, err := ParseSet(src)
		if err != nil {
			return
		}
		// Accepted input: the canonical rendering must re-parse to the
		// same queries.
		back, err := ParseSet(FormatSet(qs))
		if err != nil {
			t.Fatalf("Format output rejected: %v", err)
		}
		if len(back) != len(qs) {
			t.Fatalf("round trip changed query count: %d vs %d", len(back), len(qs))
		}
		for i := range qs {
			if qs[i].String() != back[i].String() {
				t.Fatalf("round trip changed query %d:\n%s\n%s", i, qs[i], back[i])
			}
		}
		// Accepted input must also survive the JSON wire format: the
		// HTTP service ships query sets as JSON.
		buf, err := json.MarshalIndent(qs, "", "  ")
		if err != nil {
			t.Fatalf("encoding: %v", err)
		}
		// The field tags write what the nested codec wrote, byte for byte.
		if obuf, err := oracleEncodeSet(qs); err != nil || !bytes.Equal(buf, obuf) {
			t.Fatalf("encodings differ (nested codec: %v):\n%s\n%s", err, buf, obuf)
		}
		jback, err := DecodeSet(buf)
		if err != nil {
			t.Fatalf("DecodeSet rejected the encoding: %v", err)
		}
		if len(jback) != len(qs) {
			t.Fatalf("JSON round trip changed query count: %d vs %d", len(jback), len(qs))
		}
		for i := range qs {
			// JSON text is UTF-8: encoding/json writes U+FFFD for a byte
			// that is not, so only valid input reads back as it was.
			if qs[i].String() != jback[i].String() && utf8.ValidString(src) {
				t.Fatalf("JSON round trip changed query %d:\n%s\n%s", i, qs[i], jback[i])
			}
		}
	})
}

// mergeFree reports whether the field tags and the nested codec owe
// the same answer on data: no object repeats a key (compared as
// encoding/json matches field names, under case folding) and no args
// array holds a null. Both are one property of encoding/json — it
// merges into its target: a second "head" decodes over the atoms of the
// first, keeping the fields it does not name, where the nested codec
// replaced them; and a null, which no TextUnmarshaler is shown, leaves
// the zero Term where the nested codec refused an empty term.
func mergeFree(data []byte) bool {
	type level struct {
		object  bool
		keys    []string // of an object: its keys so far
		wantKey bool     // of an object: the next token is a key, or the end
		args    bool     // of an array: it is the value of an "args" key
	}
	var stack []level
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return true // the end, or bytes both decoders refuse
		}
		top := len(stack) - 1
		if key, isString := tok.(string); isString && top >= 0 && stack[top].wantKey {
			for _, k := range stack[top].keys {
				if strings.EqualFold(k, key) {
					return false
				}
			}
			stack[top].keys = append(stack[top].keys, key)
			stack[top].wantKey = false
			continue
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, level{object: true, wantKey: true})
			continue
		case json.Delim('['):
			args := top >= 0 && stack[top].object && strings.EqualFold(stack[top].keys[len(stack[top].keys)-1], "args")
			stack = append(stack, level{args: args})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack, top = stack[:top], top-1
		case nil:
			if top >= 0 && stack[top].args {
				return false
			}
		}
		if top >= 0 && stack[top].object {
			stack[top].wantKey = true // a value ended
		}
	}
}

// TestMergeFree: the differential skips the two shapes the codecs do
// read differently, and not their neighbours.
func TestMergeFree(t *testing.T) {
	for _, tc := range []struct {
		in    string
		free  bool
		reads string // what DecodeSet makes of an input the differential skips
	}{
		{in: `[{"head":[{"rel":"R","args":["?x"]}],"HEAD":[{"rel":"S"}]}]`, reads: "{} S(x) :- true"},
		{in: `[{"head":[{"rel":"R","Args":[null]}]}]`, reads: "{} R('') :- true"},
		{in: `{"a":1,"b":[{"a":2}],"A":3}`},
		{in: `[null,{"head":null,"post":[],"body":[{"rel":"T","args":null,"x":[null]}]}]`, free: true},
		{in: `[{"head":[{"rel":"R","args":["?x"]}]},{"head":[{"rel":"R","args":["?x"]}]}]`, free: true},
		{in: `{"a":{"b":"a"},"c":{"b":2}}`, free: true},
	} {
		if got := mergeFree([]byte(tc.in)); got != tc.free {
			t.Errorf("mergeFree(%s) = %v", tc.in, got)
		}
		if tc.reads == "" {
			continue
		}
		qs, err := DecodeSet([]byte(tc.in))
		want, oracleErr := oracleDecodeSet([]byte(tc.in))
		if err != nil || qs[0].String() != tc.reads || oracleErr == nil && reflect.DeepEqual(qs, want) {
			t.Errorf("%s: DecodeSet reads %v (%v), the nested codec %v (%v)", tc.in, qs, err, want, oracleErr)
		}
	}
}

// FuzzDecodeSet drives the JSON decoder with raw bytes: it must never
// panic, it must accept exactly what the nested codec accepted and read
// it as the same set (on input that is mergeFree), and whatever it
// accepts must survive a decode -> encode -> decode round trip with
// stable rendering — the property the HTTP wire format relies on for
// arbitrary client payloads.
func FuzzDecodeSet(f *testing.F) {
	seeds := []string{
		`[]`,
		`[{"head":[{"rel":"R","args":["=U1","?x"]}]}]`,
		`[{"id":"q","post":[{"rel":"R","args":["=U2","?y"]}],` +
			`"head":[{"rel":"R","args":["=U1","?x"]}],` +
			`"body":[{"rel":"T","args":["?x","=c0"]}]}]`,
		`[{"head":[{"rel":"","args":[]}]}]`,
		`[{"head":[{"rel":"R","args":["x"]}]}]`,
		`[{"head":[{"rel":"R","args":["?"]}]}]`,
		`not json`,
		`[{"head":[{"rel":"R","args":["?x"]}],"HEAD":[{"rel":"S"}]}]`,
		`[{"head":[{"rel":"R","Args":[null]}]}]`,
		`[null,{"head":null,"post":[],"body":[{"rel":"T","args":null,"x":[null]}]}]`,
		`[{"head":[{"args":["=a"]}]}]`,
		`[{"head":[{"rel":"R","args":["=a",5]}]}]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		qs, err := DecodeSet(data)
		// The field tags and the check accept what the nested codec
		// accepted, and read it as the same set.
		if mergeFree(data) {
			want, oracleErr := oracleDecodeSet(data)
			if (err == nil) != (oracleErr == nil) {
				t.Fatalf("DecodeSet says %v, the nested codec %v", err, oracleErr)
			}
			if err == nil && !reflect.DeepEqual(qs, want) {
				t.Fatalf("DecodeSet read %+v, the nested codec %+v", qs, want)
			}
		}
		if err != nil {
			return
		}
		buf, err := json.MarshalIndent(qs, "", "  ")
		if err != nil {
			t.Fatalf("encoding rejected accepted set: %v", err)
		}
		back, err := DecodeSet(buf)
		if err != nil {
			t.Fatalf("DecodeSet rejected its own encoding: %v", err)
		}
		if len(back) != len(qs) {
			t.Fatalf("round trip changed query count: %d vs %d", len(back), len(qs))
		}
		for i := range qs {
			a, _ := json.Marshal(qs[i])
			b, _ := json.Marshal(back[i])
			if string(a) != string(b) {
				t.Fatalf("round trip changed query %d:\n%s\n%s", i, a, b)
			}
		}
	})
}
