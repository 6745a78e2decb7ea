package wire

import (
	"encoding/json"
	"errors"
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

// TestPathSafe: the two dot segments are the names no path carries.
func TestPathSafe(t *testing.T) {
	for name, want := range map[string]bool{".": false, "..": false, "...": true, "a": true, "": true} {
		if PathSafe(name) != want {
			t.Errorf("PathSafe(%q) = %v, want %v", name, !want, want)
		}
	}
}

// TestFromHTTPRefusals: a body that does not decode is refused with the
// decoder's error; one that decodes but names no relation in an atom is
// refused as a bad request, a join and a batch alike; a body that
// decodes and checks is taken.
func TestFromHTTPRefusals(t *testing.T) {
	body := func(s string) func(any) error { return func(v any) error { return json.Unmarshal([]byte(s), v) } }
	noRel := `{"id":"q","head":[{"rel":"","args":["?x"]}]}`
	badRequest := func(name string, err error) {
		t.Helper()
		var ae *api.Error
		if !errors.As(err, &ae) || ae.Status != 400 || ae.Code != api.CodeBadRequest || !strings.HasPrefix(ae.Message, "decoding body: ") {
			t.Errorf("%s: %v, want a 400 bad_request", name, err)
		}
	}
	_, err := Join.FromHTTP("s", "", body(`{"query":`+noRel+`}`))
	badRequest("join without a relation", err)
	_, err = Coordinate.FromHTTP("", "", body(`{"requests":[{"id":"r","queries":[`+noRel+`]}]}`))
	badRequest("batch without a relation", err)
	for _, op := range []func(func(any) error) error{
		func(b func(any) error) error { _, err := Join.FromHTTP("s", "", b); return err },
		func(b func(any) error) error { _, err := Coordinate.FromHTTP("", "", b); return err },
	} {
		var se *json.SyntaxError
		if err := op(body(`{"`)); !errors.As(err, &se) {
			t.Errorf("an undecodable body: %v, want the decoder's error", err)
		}
	}
	q := sampleQuery()
	raw, _ := json.Marshal(api.JoinRequest{Query: q})
	if got, err := Join.FromHTTP("s", "", body(string(raw))); err != nil || got.Session != "s" || !reflect.DeepEqual(got.Query, q) {
		t.Errorf("a valid join: %+v, %v", got, err)
	}
	raw, _ = json.Marshal(api.CoordinateRequest{Requests: []api.Request{{ID: "r", Queries: []eq.Query{q}}}})
	if got, err := Coordinate.FromHTTP("", "", body(string(raw))); err != nil || len(got.Requests) != 1 || !reflect.DeepEqual(got.Requests[0].Queries[0], q) {
		t.Errorf("a valid batch: %+v, %v", got, err)
	}
}

// TestBoundHTTPPaths: a call's path carries its key, and a query string
// only when there is one.
func TestBoundHTTPPaths(t *testing.T) {
	for _, c := range []struct {
		call Call
		want string
	}{
		{Status.Bind(StatusReq{Session: "s"}), "/v1/sessions/s"},
		{Status.Bind(StatusReq{Session: "s", Trace: true}), "/v1/sessions/s?trace=1"},
		{Join.Bind(JoinReq{Session: "a/b"}), "/v1/sessions/a%2Fb/join"},
		{Health.Bind(None{}), "/healthz"},
	} {
		if path, _, _ := c.call.HTTP(); path != c.want {
			t.Errorf("%s: path %q, want %q", c.call.Route().Name, path, c.want)
		}
	}
}

// TestBareReplyDecodes: an operation that answers with a bare status
// reads an empty reply body, and refuses one that is not.
func TestBareReplyDecodes(t *testing.T) {
	call := DeleteSession.Bind(SessionReq{Session: "s"})
	if err := call.DecodeReply(Reply{}); err != nil {
		t.Fatalf("an empty reply to a delete: %v", err)
	}
	if err := call.DecodeReply(Reply{Body: []byte{0}}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("a reply body to a delete: %v, want ErrMalformed", err)
	}
}
