package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"entangled/internal/api"
	"entangled/internal/coord"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/server"
	"entangled/internal/workload"
)

// The shadow types have the batch reply's fields and tags and no
// methods, so json.Marshal renders them by reflection: the reference
// the hand-rendered reply (api.CoordinateResponse.AppendJSON) must
// equal byte for byte.
type (
	shadowReply struct {
		Responses []shadowResponse `json:"responses"`
	}
	shadowResponse struct {
		ID     string        `json:"id,omitempty"`
		Result *shadowResult `json:"result"`
		Error  *shadowError  `json:"error,omitempty"`
	}
	shadowResult struct {
		Set       []int                       `json:"set"`
		Values    map[int]map[string]eq.Value `json:"values,omitempty"`
		DBQueries int64                       `json:"db_queries"`
	}
	shadowError struct {
		Code         string `json:"code"`
		Message      string `json:"message"`
		Owner        string `json:"owner,omitempty"`
		RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	}
)

func shadowOf(rep api.CoordinateResponse) shadowReply {
	var s shadowReply
	if rep.Responses != nil {
		s.Responses = make([]shadowResponse, len(rep.Responses))
	}
	for i, r := range rep.Responses {
		s.Responses[i].ID = r.ID
		if r.Result != nil {
			s.Responses[i].Result = &shadowResult{Set: r.Result.Set, Values: r.Result.Values, DBQueries: r.Result.DBQueries}
		}
		if e := r.Error; e != nil {
			s.Responses[i].Error = &shadowError{Code: e.Code, Message: e.Message, Owner: e.Owner, RetryAfterMS: e.RetryAfterMS}
		}
	}
	return s
}

// replyOf builds a batch reply from the fuzzer's strings and keys. Bits
// of shape drop the set, empty the values, nil an inner map, make the
// second response an inline error and drop the responses altogether.
func replyOf(id, name, value string, k1, k2 int, shape uint8, msg string) api.CoordinateResponse {
	if shape&16 != 0 {
		return api.CoordinateResponse{}
	}
	r := &coord.Result{Set: []int{k1, k2}, DBQueries: int64(k1) * int64(k2)}
	if shape&1 != 0 {
		r.Set = nil
	}
	r.Values = map[int]map[string]eq.Value{}
	if shape&2 == 0 {
		r.Values[k1] = map[string]eq.Value{name: eq.Value(value), "x": eq.Value(id), value: "c"}
		r.Values[k2] = map[string]eq.Value{id: eq.Value(name)}
		for k := range 12 { // multi-digit keys beside k1 and k2
			r.Values[k1+10*k] = map[string]eq.Value{"y": eq.Value(name + value)}
		}
		if shape&4 != 0 {
			r.Values[k2] = nil
		}
	}
	second := api.Response{ID: name, Result: &coord.Result{Set: []int{}, Values: map[int]map[string]eq.Value{}}}
	if shape&8 != 0 {
		second = api.Response{ID: value, Error: &api.Error{Code: id, Message: msg, Owner: name, RetryAfterMS: int64(k2), Status: 429}}
	}
	return api.CoordinateResponse{Responses: []api.Response{{ID: id, Result: r}, second, {}}}
}

// FuzzCoordinateReplyJSON holds the hand-rendered batch reply to
// encoding/json: AppendJSON, and json.Marshal through Result's
// MarshalJSON, write exactly what reflection writes for the shadow
// types — key order ("10" before "2", "-1" before "0"), escaping (HTML,
// control bytes, invalid UTF-8, U+2028), null and omitted fields.
func FuzzCoordinateReplyJSON(f *testing.F) {
	f.Add("r1", "x", "t0", 2, 10, uint8(0), "")
	f.Add("<r&1>", "na\u2028me", "v\x00al\u2028", -1, 10, uint8(8), "a <b> & c")
	f.Add("\xff\xfe", "é", "東京", -12, 3, uint8(1|4), "\x7f\"\\")
	f.Add("", "", "", 0, 0, uint8(2|8), "m")
	f.Add("r", "x", "y", 7, 100, uint8(16), "")
	f.Add("<", ">", "&", 1, 2, uint8(8), "\n")
	f.Add(`"`, `\`, "\t", 11, 1, uint8(0), "")
	f.Add("id", "\xc3", "\xff<", 5, 50, uint8(4), "\xff")
	f.Fuzz(func(t *testing.T, id, name, value string, k1, k2 int, shape uint8, msg string) {
		rep := replyOf(id, name, value, k1, k2, shape, msg)
		want, err := json.Marshal(shadowOf(rep))
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON:\n got %s\nwant %s", got, want)
		}
		if got, err := json.Marshal(rep); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("json.Marshal (%v):\n got %s\nwant %s", err, got, want)
		}
	})
}

// batchReply serves coordmark's batch_http_small call — 16 requests of
// 8 Figure-4 list queries on a 4-shard 20,000-row store — over a real
// socket and returns the HTTP response with its body read.
func batchReply(t *testing.T) (*http.Response, []byte) {
	t.Helper()
	srv, err := server.New(engine.New(workload.NewStore(4, 20000, 0), engine.Options{}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	reqs := make([]api.Request, 16)
	for r := range reqs {
		at := 1000 + 1237*r
		reqs[r] = api.Request{ID: "r" + strconv.Itoa(at), Queries: workload.ListQueriesAt(8, at)}
	}
	body, err := json.Marshal(api.CoordinateRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/coordinate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, %v: %s", resp.StatusCode, err, b.Bytes())
	}
	return resp, b.Bytes()
}

// TestBatchReplyIsOneSizedWrite: the 16 x 8 reply, larger than
// net/http's response buffer, carries its Content-Length and is not
// chunked, and its bytes are the reflective encoding of the same reply
// plus the newline json.Encoder writes.
func TestBatchReplyIsOneSizedWrite(t *testing.T) {
	resp, body := batchReply(t)
	if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) || resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
		t.Fatalf("a %d-byte reply went out with Transfer-Encoding %q and Content-Length %d", len(body), resp.TransferEncoding, resp.ContentLength)
	}
	var rep api.CoordinateResponse
	if err := json.Unmarshal(body, &rep); err != nil || len(rep.Responses) != 16 {
		t.Fatalf("%d responses (%v)", len(rep.Responses), err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(shadowOf(rep)); err != nil || !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("reply (%v):\n got %s\nwant %s", err, body, want.Bytes())
	}
	t.Logf("the 16 x 8 reply: %d bytes", len(body))
}
