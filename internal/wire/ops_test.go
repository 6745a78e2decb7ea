package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"entangled/internal/api"
	"entangled/internal/eq"
)

// TestOpsTableIsTotal holds the operation table to its own rules: a row
// has one name, one kind and one verb + path nobody else has and is
// reachable over at least one protocol; Kind.String names a request
// kind as its row does; a reply that can be written can be read back;
// and one sample request per row survives both of its encodings —
// GetReq(Encode(q)) == q and FromHTTP(ToHTTP(q)) == q, or, for a row
// that takes no request, an empty body. A row of Ops without a sample
// fails.
func TestOpsTableIsTotal(t *testing.T) {
	names, kinds, patterns := map[string]bool{}, map[Kind]bool{}, map[string]bool{}
	for _, r := range Ops {
		pattern := r.Method + " " + r.Path
		switch {
		case r.Name == "" || names[r.Name]:
			t.Errorf("row %q: the name is empty or taken", r.Name)
		case r.Kind == 0 && r.Method == "":
			t.Errorf("row %s is reachable over neither protocol", r.Name)
		case r.Kind != 0 && (kinds[r.Kind] || r.Kind >= KindReply || r.Kind == KindForward || r.Kind == KindTenant):
			t.Errorf("row %s: kind %d is taken, an envelope or not a request kind", r.Name, r.Kind)
		case r.Kind != 0 && r.Kind.String() != r.Name:
			t.Errorf("row %s: its kind calls itself %v", r.Name, r.Kind)
		case (r.Method == "") != (r.Path == "") || r.Method != "" && patterns[pattern]:
			t.Errorf("row %s: %q is half a route or taken", r.Name, pattern)
		}
		names[r.Name], kinds[r.Kind], patterns[pattern] = true, true, true
	}

	sampled := map[string]bool{}
	q := sampleQuery()
	sample(t, sampled, Coordinate, CoordinateReq{Requests: []api.Request{{ID: "r1", Queries: []eq.Query{q}}}})
	sample(t, sampled, CreateSession, CreateSessionReq{ID: "a/b", ParkUnsafe: true})
	sample(t, sampled, Join, JoinReq{Session: "a/b", Query: q})
	sample(t, sampled, Leave, LeaveReq{Session: "a/b", QueryID: "u1"})
	sample(t, sampled, Status, StatusReq{Session: "a/b", Trace: true})
	sample(t, sampled, DeleteSession, SessionReq{Session: "a/b"})
	sample(t, sampled, Subscribe, SessionReq{Session: "a/b"})
	sample(t, sampled, Health, None{})
	sample(t, sampled, Cluster, None{})
	sample(t, sampled, Recovery, None{})
	sample(t, sampled, Metrics, None{})
	sample(t, sampled, Tenants, None{})
	for _, r := range Ops {
		if !sampled[r.Name] {
			t.Errorf("row %s has no sample request", r.Name)
		}
	}
}

// sample checks one row's typed half against one request.
func sample[Q Req, R any](t *testing.T, sampled map[string]bool, o *Op[Q, R], q Q) {
	t.Helper()
	sampled[o.Name] = true
	_, noReq := any(q).(None)
	_, noReply := any(*new(R)).(None)
	keyed := strings.Contains(o.Path, "{id}")
	switch {
	case (o.PutReply == nil) != (o.GetReply == nil):
		t.Errorf("%s: a reply encoder needs its decoder and the reverse", o.Name)
	case (o.PutReply != nil) != (o.Kind != 0 && !noReply):
		t.Errorf("%s: a reply codec belongs to exactly the binary operations that reply", o.Name)
	case (o.GetReq != nil) != (o.Kind != 0 && !noReq):
		t.Errorf("%s: a request decoder belongs to exactly the binary operations that take a request", o.Name)
	case (o.FromHTTP != nil) != (o.Method != "" && !noReq) || o.ToHTTP != nil && o.FromHTTP == nil:
		t.Errorf("%s: an HTTP mapping belongs to exactly the HTTP operations that take a request", o.Name)
	case keyed && o.Key == nil:
		t.Errorf("%s: the path has an {id} and the row no key", o.Name)
	}
	if noReq {
		var e Enc
		o.Bind(q).Encode(&e)
		if len(e.Bytes()) != 0 {
			t.Errorf("%s: a parameterless request encodes %d bytes, want none", o.Name, len(e.Bytes()))
		}
	}
	if o.GetReq != nil {
		var e Enc
		q.Encode(&e)
		d := NewDec(e.Bytes())
		if back := o.GetReq(d); d.Finish() != nil || !sameReq(back, q) {
			t.Errorf("%s: GetReq(Encode(q)) = %+v (%v), want %+v", o.Name, back, d.Err(), q)
		}
	}
	if o.FromHTTP != nil {
		call := o.Bind(q)
		path, in, _ := call.HTTP()
		path, query, _ := strings.Cut(path, "?")
		key := ""
		if keyed { // what http.ServeMux hands the server as PathValue("id")
			if key = call.Key(); path != strings.Replace(o.Path, "{id}", "a%2Fb", 1) {
				t.Errorf("%s: path %q does not carry the escaped key", o.Name, path)
			}
		}
		buf, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		back, err := o.FromHTTP(key, query, func(v any) error { return json.Unmarshal(buf, v) })
		if err != nil || !sameReq(back, q) {
			t.Errorf("%s: FromHTTP(ToHTTP(q)) = %+v (%v), want %+v", o.Name, back, err, q)
		}
		if c, ok := any(back).(CoordinateReq); ok {
			c.Release()
		}
	}
}

// sameReq compares two requests by what they carry: a batch the server
// decoded, from a frame or an HTTP body, also holds its slab.
func sameReq(a, b any) bool {
	if ca, ok := a.(CoordinateReq); ok {
		a, b = ca.Requests, b.(CoordinateReq).Requests
	}
	return reflect.DeepEqual(a, b)
}
