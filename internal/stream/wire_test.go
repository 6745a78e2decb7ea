package stream

import (
	"encoding/json"
	"reflect"
	"testing"

	"entangled/internal/eq"
)

func TestEventJSONRoundTrip(t *testing.T) {
	join := Event{Kind: JoinEvent, Query: eq.Query{
		ID:   "u1",
		Post: []eq.Atom{eq.NewAtom("R", eq.C("U2"), eq.V("y"))},
		Head: []eq.Atom{eq.NewAtom("R", eq.C("U1"), eq.V("x"))},
		Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
	}}
	leave := Event{Kind: LeaveEvent, ID: "u1"}
	for _, ev := range []Event{join, leave} {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		var back Event
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
		if !reflect.DeepEqual(back, ev) {
			t.Fatalf("round trip changed %v into %v (wire %s)", ev, back, data)
		}
	}
}

func TestEventJSONRejectsMalformed(t *testing.T) {
	for _, raw := range []string{
		`{"k":"nope"}`,
		`{"k":"join"}`,
		`{"k":"leave"}`,
		`{"k":"join","q":{"id":"u1","head":[{"rel":"R","args":["?x"]}],"body":[{"args":["?x"]}]}}`,
		`{`,
		`{"k":"leave","id":"u1","q":5}`,
		`{"k":"leave","id":"u1","q":"u1"}`,
	} {
		var ev Event
		if err := json.Unmarshal([]byte(raw), &ev); err == nil {
			t.Fatalf("malformed event %s decoded as %v", raw, ev)
		}
	}
	if _, err := json.Marshal(Event{Kind: 9}); err == nil {
		t.Fatal("unknown kind encoded")
	}
}
