package eq

import (
	"encoding/json"
	"fmt"
)

// The nested codec eq shipped until its JSON became field tags, kept as
// the tests' reference: Term, Atom and Query each a json.Marshaler and
// json.Unmarshaler of their own, every level decoding its bytes again
// through a shadow struct. It hangs on copies of the three types — the
// methods on the real ones would be the codec under test — and is never
// built into a binary.

type oracleTerm Term

func (t oracleTerm) MarshalJSON() ([]byte, error) {
	if Term(t).IsVar() {
		return json.Marshal("?" + t.Name)
	}
	return json.Marshal("=" + t.Name)
}

func (t *oracleTerm) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if len(s) == 0 {
		return fmt.Errorf("eq: empty term")
	}
	switch s[0] {
	case '?':
		if len(s) == 1 {
			return fmt.Errorf("eq: variable term with empty name")
		}
		*t = oracleTerm(V(s[1:]))
	case '=':
		*t = oracleTerm(C(Value(s[1:])))
	default:
		return fmt.Errorf("eq: term %q must start with '?' (variable) or '=' (constant)", s)
	}
	return nil
}

type oracleAtom struct {
	Rel  string
	Args []oracleTerm
}

type oracleAtomJSON struct {
	Rel  string       `json:"rel"`
	Args []oracleTerm `json:"args"`
}

func (a oracleAtom) MarshalJSON() ([]byte, error) {
	return json.Marshal(oracleAtomJSON{Rel: a.Rel, Args: a.Args})
}

func (a *oracleAtom) UnmarshalJSON(data []byte) error {
	var w oracleAtomJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Rel == "" {
		return fmt.Errorf("eq: atom without relation name")
	}
	a.Rel = w.Rel
	a.Args = w.Args
	return nil
}

type oracleQuery struct {
	ID               string
	Post, Head, Body []oracleAtom
}

type oracleQueryJSON struct {
	ID   string       `json:"id,omitempty"`
	Post []oracleAtom `json:"post,omitempty"`
	Head []oracleAtom `json:"head"`
	Body []oracleAtom `json:"body,omitempty"`
}

func (q oracleQuery) MarshalJSON() ([]byte, error) {
	return json.Marshal(oracleQueryJSON{ID: q.ID, Post: q.Post, Head: q.Head, Body: q.Body})
}

func (q *oracleQuery) UnmarshalJSON(data []byte) error {
	var w oracleQueryJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	q.ID = w.ID
	q.Post = w.Post
	q.Head = w.Head
	q.Body = w.Body
	return nil
}

// mapSlice converts element-wise and keeps nil apart from empty, which
// the encoding tells apart ("head":null, "head":[]).
func mapSlice[A, B any](in []A, f func(A) B) []B {
	if in == nil {
		return nil
	}
	out := make([]B, len(in))
	for i, a := range in {
		out[i] = f(a)
	}
	return out
}

func toOracle(q Query) oracleQuery {
	atoms := func(as []Atom) []oracleAtom {
		return mapSlice(as, func(a Atom) oracleAtom {
			return oracleAtom{Rel: a.Rel, Args: mapSlice(a.Args, func(t Term) oracleTerm { return oracleTerm(t) })}
		})
	}
	return oracleQuery{ID: q.ID, Post: atoms(q.Post), Head: atoms(q.Head), Body: atoms(q.Body)}
}

func fromOracle(q oracleQuery) Query {
	atoms := func(as []oracleAtom) []Atom {
		return mapSlice(as, func(a oracleAtom) Atom {
			return Atom{Rel: a.Rel, Args: mapSlice(a.Args, func(t oracleTerm) Term { return Term(t) })}
		})
	}
	return Query{ID: q.ID, Post: atoms(q.Post), Head: atoms(q.Head), Body: atoms(q.Body)}
}

// oracleEncodeSet is a query set's indented JSON through the nested codec.
func oracleEncodeSet(qs []Query) ([]byte, error) {
	return json.MarshalIndent(mapSlice(qs, toOracle), "", "  ")
}

// oracleDecodeSet is DecodeSet through the nested codec, which checks
// the relation name as it reads each atom.
func oracleDecodeSet(data []byte) ([]Query, error) {
	var qs []oracleQuery
	if err := json.Unmarshal(data, &qs); err != nil {
		return nil, err
	}
	return mapSlice(qs, fromOracle), nil
}
