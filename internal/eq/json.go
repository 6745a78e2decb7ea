package eq

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
)

// The JSON wire format is the field tags on Atom and Query plus the
// text form of a term, a tagged string — "?x" for the variable x, "=v"
// for the constant v — so query files stay readable and constants that
// begin with '?' are unambiguous. What tags cannot say, CheckRels does.

// MarshalText renders a variable as "?name", a constant as "=value".
func (t Term) MarshalText() ([]byte, error) {
	tag := byte('=')
	if t.IsVar() {
		tag = '?'
	}
	return append(append(make([]byte, 0, 1+len(t.Name)), tag), t.Name...), nil
}

// UnmarshalText reads the tagged-string term encoding.
func (t *Term) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		return errors.New("eq: empty term")
	}
	switch text[0] {
	case '?':
		if len(text) == 1 {
			return errors.New("eq: variable term with empty name")
		}
		*t = V(string(text[1:]))
	case '=':
		*t = C(Value(text[1:]))
	default:
		return fmt.Errorf("eq: term %q must start with '?' (variable) or '=' (constant)", text)
	}
	return nil
}

// CheckRels reports an atom of q that names no relation, the one rule
// of the query grammar field tags cannot state. Whatever reads JSON
// another process wrote — DecodeSet, the HTTP request edge, journal
// replay — calls it; the binary protocol has wire.GetQuery refuse it.
func (q Query) CheckRels() error {
	noRel := func(a Atom) bool { return a.Rel == "" }
	if slices.ContainsFunc(q.Post, noRel) || slices.ContainsFunc(q.Head, noRel) || slices.ContainsFunc(q.Body, noRel) {
		return fmt.Errorf("eq: query %q: atom without relation name", q.ID)
	}
	return nil
}

// DecodeSet parses a query set from JSON.
func DecodeSet(data []byte) (qs []Query, err error) {
	if err = json.Unmarshal(data, &qs); err != nil {
		return nil, err
	}
	for _, q := range qs {
		if err = q.CheckRels(); err != nil {
			return nil, err
		}
	}
	return qs, nil
}

// AppendJSONString appends s as encoding/json writes a string: verbatim
// between quotes when every byte is printable ASCII that HTML escaping
// leaves alone, which names and values almost always are, and through
// json.Marshal otherwise, so escaping is encoding/json's by
// construction. Hand-rendered replies (coord.Result.AppendJSON) use it.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
