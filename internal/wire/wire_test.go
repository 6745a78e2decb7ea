package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"entangled/internal/api"
	"entangled/internal/coord"
	"entangled/internal/eq"
	"entangled/internal/frame"
)

var update = flag.Bool("update", false, "rewrite golden frame files")

// sampleQuery mirrors the api package's golden fixture, so the two
// protocols' golden files describe the same payloads.
func sampleQuery() eq.Query {
	return eq.Query{
		ID:   "u1",
		Post: []eq.Atom{eq.NewAtom("R", eq.C("U2"), eq.V("y"))},
		Head: []eq.Atom{eq.NewAtom("R", eq.C("U1"), eq.V("x"))},
		Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
	}
}

func sampleResult() *coord.Result {
	return &coord.Result{
		Set:       []int{0, 1},
		Values:    map[int]map[string]eq.Value{0: {"x": "t0"}, 1: {"x": "t0", "y": "t0"}},
		DBQueries: 2,
	}
}

// goldenFrame compares the complete frame (header + payload) for one
// encoded message against testdata/<name>.bin byte for byte; `go test
// ./internal/wire -update` rewrites the files. These frames ARE the
// binary protocol: a diff here is a wire-format change and must be
// deliberate. The stored frame is also re-read through ReadFrame, so
// the golden files double as known-good decoder input (and fuzz
// seeds).
func goldenFrame(t *testing.T, name string, encode func(*Enc)) []byte {
	t.Helper()
	var e Enc
	encode(&e)
	framed := frame.Append(nil, e.Bytes())
	path := filepath.Join("testdata", name+".bin")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, framed, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/wire -update` to create it)", err)
	}
	if !bytes.Equal(framed, want) {
		t.Fatalf("frame %s drifted from golden file:\n--- got ---\n%x\n--- want ---\n%x", name, framed, want)
	}
	payload, err := ReadFrame(bytes.NewReader(want), nil)
	if err != nil {
		t.Fatalf("%s: re-reading golden frame: %v", name, err)
	}
	if !bytes.Equal(payload, e.Bytes()) {
		t.Fatalf("%s: frame payload did not round-trip", name)
	}
	return payload
}

func TestGoldenCoordinateRequestFrame(t *testing.T) {
	req := CoordinateReq{Requests: []api.Request{{ID: "r1", Queries: []eq.Query{sampleQuery()}}}}
	payload := goldenFrame(t, "coordinate_request", func(e *Enc) {
		PutHeader(e, Header{Kind: KindCoordinate, ID: 1})
		req.Encode(e)
	})
	d := NewDec(payload)
	if h := GetHeader(d); h.Kind != KindCoordinate || h.ID != 1 {
		t.Fatalf("header %+v", h)
	}
	back := DecodeCoordinateReq(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Requests, req.Requests) {
		t.Fatalf("decoded %+v != %+v", back, req)
	}
}

func TestGoldenCoordinateReplyFrame(t *testing.T) {
	resps := []api.Response{
		{ID: "r1", Result: sampleResult()},
		{ID: "r2", Error: &api.Error{Code: coord.CodeUnsafe, Message: "coord: query set is not safe: unsafe queries [0]"}},
	}
	payload := goldenFrame(t, "coordinate_reply", func(e *Enc) {
		PutHeader(e, Header{Kind: KindReply, ID: 1})
		PutReplyOK(e, 200)
		PutResponses(e, resps)
	})
	d := NewDec(payload)
	if h := GetHeader(d); h.Kind != KindReply || h.ID != 1 {
		t.Fatalf("header %+v", h)
	}
	status, err := GetReply(d)
	if err != nil || status != 200 {
		t.Fatalf("reply status %d err %v", status, err)
	}
	back := GetResponses(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, resps) {
		t.Fatalf("decoded %+v != %+v", back, resps)
	}
}

func TestGoldenSessionUpdateReplyFrame(t *testing.T) {
	up := api.Update{
		Seq:       3,
		Admitted:  true,
		TeamSize:  2,
		Stats:     coord.DeltaStats{Slot: 2, Components: 2, Dirty: 1, Reused: 1, DBQueries: 2},
		ElapsedNS: 1_500_000,
	}
	payload := goldenFrame(t, "session_update_reply", func(e *Enc) {
		PutHeader(e, Header{Kind: KindReply, ID: 7})
		PutReplyOK(e, 200)
		PutUpdate(e, up)
	})
	d := NewDec(payload)
	GetHeader(d)
	if _, err := GetReply(d); err != nil {
		t.Fatal(err)
	}
	back := GetUpdate(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, up) {
		t.Fatalf("decoded %+v != %+v", back, up)
	}
}

func TestGoldenSessionStatusReplyFrame(t *testing.T) {
	st := api.SessionStatus{
		ID:      "alpha",
		Live:    1,
		Queries: []eq.Query{sampleQuery()},
		Result: &coord.Result{
			Set:       []int{0},
			Values:    map[int]map[string]eq.Value{0: {"x": "t0", "y": "t0"}},
			DBQueries: 2,
		},
		Totals:   api.Totals{Events: 4, Joins: 3, Leaves: 1, Dirty: 4, Reused: 2, DBQueries: 9},
		TeamSize: 1,
		Trace: &coord.Trace{Components: []coord.ComponentEvent{
			{Members: []int{0}, Set: []int{0}, Status: "grounded", SetSize: 1, Combined: "T(q0.x, 'c0')"},
		}},
	}
	payload := goldenFrame(t, "session_status_reply", func(e *Enc) {
		PutHeader(e, Header{Kind: KindReply, ID: 9})
		PutReplyOK(e, 200)
		PutSessionStatus(e, st)
	})
	d := NewDec(payload)
	GetHeader(d)
	if _, err := GetReply(d); err != nil {
		t.Fatal(err)
	}
	back := GetSessionStatus(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, st) {
		t.Fatalf("decoded %+v != %+v", back, st)
	}
}

func TestGoldenErrorReplyFrame(t *testing.T) {
	payload := goldenFrame(t, "error_reply", func(e *Enc) {
		PutHeader(e, Header{Kind: KindReply, ID: 2})
		PutReplyErr(e, &api.Error{
			Status:  409,
			Code:    coord.CodeUnsafeArrival,
			Message: "coord: arrival would make the query set unsafe u9: would make queries [1 4] unsafe",
		})
	})
	d := NewDec(payload)
	GetHeader(d)
	status, err := GetReply(d)
	if status != 409 {
		t.Fatalf("status %d", status)
	}
	re, ok := err.(*api.Error)
	if !ok {
		t.Fatalf("reply error %T", err)
	}
	if re.Code != coord.CodeUnsafeArrival || re.Status != 409 {
		t.Fatalf("decoded %+v", re)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenTenantRequestFrame pins the admission envelope: the tenant
// name, then the wrapped request verbatim. The inner frame here is the
// same coordinate request as coordinate_request.bin.
func TestGoldenTenantRequestFrame(t *testing.T) {
	inner := CoordinateReq{Requests: []api.Request{{ID: "r1", Queries: []eq.Query{sampleQuery()}}}}
	var ie Enc
	inner.Encode(&ie)
	env := TenantReq{Tenant: "acme", Kind: KindCoordinate, Body: ie.Bytes()}
	payload := goldenFrame(t, "tenant_request", func(e *Enc) {
		PutHeader(e, Header{Kind: KindTenant, ID: 4})
		env.Encode(e)
	})
	d := NewDec(payload)
	if h := GetHeader(d); h.Kind != KindTenant || h.ID != 4 {
		t.Fatalf("header %+v", h)
	}
	back := DecodeTenantReq(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if back.Tenant != "acme" || back.Kind != KindCoordinate || !bytes.Equal(back.Body, ie.Bytes()) {
		t.Fatalf("decoded %+v != %+v", back, env)
	}
	// The aliased body decodes as the inner request.
	id := NewDec(back.Body)
	if got := DecodeCoordinateReq(id); id.Finish() != nil || !reflect.DeepEqual(got.Requests, inner.Requests) {
		t.Fatalf("inner decode %+v != %+v", got, inner)
	}
}

// TestGoldenThrottledReplyFrame pins the throttled error reply with its
// retry-after hint, the binary twin of the HTTP 429 envelope.
func TestGoldenThrottledReplyFrame(t *testing.T) {
	payload := goldenFrame(t, "throttled_reply", func(e *Enc) {
		PutHeader(e, Header{Kind: KindReply, ID: 5})
		PutReplyErr(e, &api.Error{
			Status:       429,
			Code:         "throttled",
			Message:      `admission: tenant "hot" throttled (rate)`,
			RetryAfterMS: 100,
		})
	})
	d := NewDec(payload)
	GetHeader(d)
	status, err := GetReply(d)
	if status != 429 {
		t.Fatalf("status %d", status)
	}
	re, ok := err.(*api.Error)
	if !ok || re.Code != "throttled" || re.RetryAfterMS != 100 {
		t.Fatalf("decoded %+v", err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenPushFrame(t *testing.T) {
	p := Push{Session: "alpha", QueryID: "u9", Seq: 12}
	payload := goldenFrame(t, "push", func(e *Enc) {
		PutHeader(e, Header{Kind: KindPush, ID: 0})
		p.Encode(e)
	})
	d := NewDec(payload)
	if h := GetHeader(d); h.Kind != KindPush || h.ID != 0 {
		t.Fatalf("header %+v", h)
	}
	back := DecodePush(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("decoded %+v != %+v", back, p)
	}
}

// jsonRoundTrip pushes v through the JSON codec into out, the way the
// HTTP protocol would deliver it.
func jsonRoundTrip(t *testing.T, v, out any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryMatchesJSONSemantics pins the nil-versus-empty contract at
// the DTO level: a value decoded from the binary codec must be
// DeepEqual to the same value decoded from the JSON codec, including
// the cases where JSON's omitempty normalizes empty to absent.
func TestBinaryMatchesJSONSemantics(t *testing.T) {
	queries := []eq.Query{
		sampleQuery(),
		{ID: "bare", Head: []eq.Atom{eq.NewAtom("R", eq.C("U3"), eq.V("z"))}},
		{Head: []eq.Atom{eq.NewAtom("R", eq.C("U4"), eq.V("w"))}, Body: []eq.Atom{}, Post: []eq.Atom{}},
		{ID: "cst", Head: []eq.Atom{eq.NewAtom("S", eq.C(""), eq.C("v"))}, Body: []eq.Atom{eq.NewAtom("T", eq.V("q"), eq.C("c1"))}},
	}
	for i, q := range queries {
		var viaJSON eq.Query
		jsonRoundTrip(t, q, &viaJSON)
		var e Enc
		PutQuery(&e, q)
		d := NewDec(e.Bytes())
		viaBinary := GetQuery(d)
		if err := d.Finish(); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !reflect.DeepEqual(viaBinary, viaJSON) {
			t.Errorf("query %d: binary %+v != json %+v", i, viaBinary, viaJSON)
		}
	}

	results := []*coord.Result{
		nil,
		{},
		{Set: []int{}},
		sampleResult(),
		{Set: []int{2}, Values: map[int]map[string]eq.Value{}, DBQueries: 1},
		{Set: []int{0}, Values: map[int]map[string]eq.Value{0: {}}},
	}
	for i, r := range results {
		var viaJSON *coord.Result
		jsonRoundTrip(t, r, &viaJSON)
		var e Enc
		PutResult(&e, r)
		d := NewDec(e.Bytes())
		viaBinary := GetResult(d)
		if err := d.Finish(); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if !reflect.DeepEqual(viaBinary, viaJSON) {
			t.Errorf("result %d: binary %#v != json %#v", i, viaBinary, viaJSON)
		}
	}

	traces := []*coord.Trace{
		nil,
		{},
		{Pruned: []coord.PruneEvent{}, Components: []coord.ComponentEvent{}},
		{Pruned: []coord.PruneEvent{{Query: 1, Reason: "duplicate"}}},
		{Components: []coord.ComponentEvent{{Members: []int{0, 1}, Status: "pruned"}}},
	}
	for i, tr := range traces {
		var viaJSON *coord.Trace
		jsonRoundTrip(t, tr, &viaJSON)
		var e Enc
		PutTrace(&e, tr)
		d := NewDec(e.Bytes())
		viaBinary := GetTrace(d)
		if err := d.Finish(); err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		if !reflect.DeepEqual(viaBinary, viaJSON) {
			t.Errorf("trace %d: binary %#v != json %#v", i, viaBinary, viaJSON)
		}
	}
}

// TestDeterministicEncoding pins that map-bearing DTOs encode
// identically across runs (sorted key order), which the golden frames
// depend on.
func TestDeterministicEncoding(t *testing.T) {
	r := sampleResult()
	var first []byte
	for i := 0; i < 32; i++ {
		var e Enc
		PutResult(&e, r)
		if first == nil {
			first = append([]byte(nil), e.Bytes()...)
			continue
		}
		if !bytes.Equal(e.Bytes(), first) {
			t.Fatalf("encoding %d differs: %x vs %x", i, e.Bytes(), first)
		}
	}
}

// TestDecodeValidation pins the decoder's input validation: the same
// malformed shapes the JSON codec rejects (empty variable names, empty
// relation names) fail typed here too.
func TestDecodeValidation(t *testing.T) {
	bad := []func(*Enc){
		func(e *Enc) { e.Byte(byte(eq.TermVar)); e.String("") }, // var needs a name
		func(e *Enc) { e.Byte(7); e.String("x") },               // unknown term kind
		func(e *Enc) { e.String(""); e.Uvarint(0) },             // atom needs a relation
		func(e *Enc) { e.Byte(2) },                              // bad bool
		func(e *Enc) { e.Uvarint(1 << 40) },                     // hostile string length
		func(e *Enc) { e.Uvarint(200); e.String("short") },      // hostile collection length
	}
	decoders := []func(*Dec){
		func(d *Dec) { GetTerm(d) },
		func(d *Dec) { GetTerm(d) },
		func(d *Dec) { getAtom(d, nil) },
		func(d *Dec) { d.Bool() },
		func(d *Dec) { _ = d.String() },
		func(d *Dec) { d.Len(2) },
	}
	for i, enc := range bad {
		var e Enc
		enc(&e)
		d := NewDec(e.Bytes())
		decoders[i](d)
		if d.Err() == nil {
			t.Errorf("case %d: malformed input decoded cleanly", i)
			continue
		}
		if !errors.Is(d.Err(), ErrMalformed) {
			t.Errorf("case %d: error %v is not ErrMalformed", i, d.Err())
		}
	}
}
