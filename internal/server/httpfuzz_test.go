package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"entangled/internal/api"
	"entangled/internal/engine"
	"entangled/internal/server"
	"entangled/internal/wire"
	"entangled/internal/workload"
)

// FuzzHTTPBody feeds arbitrary bytes as the body of every HTTP route
// that takes one (every POST row of wire.Ops), through ServeHTTP and
// httptest: no socket. Each input gets a fresh server holding session s
// with one live query, so the session routes reach their handlers. Every
// reply must be a 2xx, or a 4xx whose body is a typed error envelope, a
// code of the contract other than internal; a 5xx or a panic fails.
func FuzzHTTPBody(f *testing.F) {
	store := workload.NewStore(1, 16, 0)
	q := workload.ChainQuery(0, 0, 4)
	var routes []*wire.Route
	for _, r := range wire.Ops {
		if r.Method == http.MethodPost {
			routes = append(routes, r)
		}
	}
	for _, call := range []wire.Call{
		wire.Coordinate.Bind(wire.CoordinateReq{Requests: []api.Request{{ID: "r", Queries: workload.ListQueriesAt(3, 1)}}}),
		wire.CreateSession.Bind(wire.CreateSessionReq{ID: "t", ParkUnsafe: true}),
		wire.Join.Bind(wire.JoinReq{Session: "s", Query: workload.ChainQuery(0, 1, 4)}),
		wire.Leave.Bind(wire.LeaveReq{Session: "s", QueryID: q.ID}),
	} {
		_, in, _ := call.HTTP()
		body, err := json.Marshal(in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{"", "{}", "null", "[", `{"requests":[{"queries":[{"body":[{"args":["?x"]}]}]}]}`, `{"query":{"id":"u","body":[{"rel":"Nowhere","args":["?x"]}]}}`} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv, err := server.New(engine.New(store, engine.Options{}), server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		join, _ := json.Marshal(api.JoinRequest{Query: q})
		if w := post(srv, "/v1/sessions", []byte(`{"id":"s"}`)); w.Code/100 != 2 {
			t.Fatalf("creating s: %d %s", w.Code, w.Body)
		}
		if w := post(srv, "/v1/sessions/s/join", join); w.Code/100 != 2 {
			t.Fatalf("joining s: %d %s", w.Code, w.Body)
		}
		for _, r := range routes {
			w := post(srv, strings.Replace(r.Path, "{id}", "s", 1), body)
			if w.Code/100 == 2 {
				continue
			}
			var env api.ErrorEnvelope
			if err := json.Unmarshal(w.Body.Bytes(), &env); w.Code/100 != 4 || err != nil || env.Error == nil || env.Error.Code == "" || env.Error.Code == api.CodeInternal {
				t.Fatalf("%s %q: status %d, body %s", r.Name, body, w.Code, w.Body)
			}
		}
	})
}

// post sends body to path through srv.ServeHTTP, with no socket.
func post(srv *server.Server, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

// TestSchemaMismatchJoinIsRefused holds the 422 schema_mismatch reply
// to what it says: a join whose body names a relation the store lacks
// is refused, not admitted, so the session is as it was and the next
// valid join coordinates.
func TestSchemaMismatchJoinIsRefused(t *testing.T) {
	srv, err := server.New(engine.New(workload.NewStore(1, 16, 0), engine.Options{}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if w := post(srv, "/v1/sessions", []byte(`{"id":"s"}`)); w.Code/100 != 2 {
		t.Fatalf("creating s: %d %s", w.Code, w.Body)
	}
	bad := []byte(`{"query":{"id":"bad","body":[{"rel":"Nowhere","args":["?x"]}]}}`)
	var env api.ErrorEnvelope
	w := post(srv, "/v1/sessions/s/join", bad)
	if err := json.Unmarshal(w.Body.Bytes(), &env); w.Code != http.StatusUnprocessableEntity || err != nil || env.Error == nil || env.Error.Code != api.CodeSchemaMismatch {
		t.Fatalf("join over Nowhere: %d %s", w.Code, w.Body)
	}
	for _, id := range []int{0, 1} {
		join, _ := json.Marshal(api.JoinRequest{Query: workload.ChainQuery(0, id, 2)})
		if w := post(srv, "/v1/sessions/s/join", join); w.Code/100 != 2 {
			t.Fatalf("valid join %d after the refused one: %d %s", id, w.Code, w.Body)
		}
	}
	if w := post(srv, "/v1/sessions/s/leave", []byte(`{"id":"bad"}`)); w.Code/100 != 4 {
		t.Fatalf("the refused query is live: leave answered %d %s", w.Code, w.Body)
	}
}
