package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"

	"entangled/internal/api"
	"entangled/internal/coord"
	"entangled/internal/wire"
)

func TestNewValidatesBaseURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "localhost:8080", "/just/a/path"} {
		if _, err := New(bad, Options{}); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
	c, err := New("http://127.0.0.1:8080/", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ht, ok := c.t.(*httpTransport)
	if !ok {
		t.Fatalf("http URL selected %T", c.t)
	}
	if ht.base != "http://127.0.0.1:8080" {
		t.Fatalf("base %q not normalised", ht.base)
	}
	for _, u := range []string{"tcp://127.0.0.1:9090", "binary://127.0.0.1:9090"} {
		c, err := New(u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bt, ok := c.t.(*binaryTransport)
		if !ok {
			t.Fatalf("New(%q) selected %T", u, c.t)
		}
		if bt.addr != "127.0.0.1:9090" {
			t.Fatalf("New(%q) dial address %q", u, bt.addr)
		}
	}
	for _, u := range []string{"ftp://127.0.0.1:21", "cluster://127.0.0.1:9090"} {
		if _, err := New(u, Options{}); err == nil || !strings.Contains(err.Error(), "unsupported scheme") {
			t.Fatalf("New(%q) = %v, want the unsupported-scheme error", u, err)
		}
	}
}

// TestErrorDecoding drives do() against a stub server: the envelope
// must come back as a typed *Error carrying status, code and message,
// with the sentinel reattached for errors.Is.
// TestSubscribeOverHTTPRefusesAndSendsNothing: push needs the binary
// protocol, so Subscribe on an HTTP client refuses at once, naming it,
// and the server sees no request.
func TestSubscribeOverHTTPRefusesAndSendsNothing(t *testing.T) {
	requests := 0
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { requests++ }))
	defer ts.Close()
	c, err := New(ts.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stop, err := c.Session("s").Subscribe(context.Background(), func(Notification) { t.Error("notified") })
	if err == nil || stop != nil || !strings.Contains(err.Error(), "require the binary protocol") {
		t.Fatalf("Subscribe over HTTP: stop %v, err %v; want a refusal naming the binary protocol", stop != nil, err)
	}
	ts.Close() // waits for any request in flight
	if requests != 0 {
		t.Fatalf("Subscribe over HTTP sent %d requests, want none", requests)
	}
}

func TestErrorDecoding(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		_, _ = w.Write([]byte(`{"error":{"code":"unsafe_arrival","message":"nope"}}`))
	}))
	defer ts.Close()
	c, err := New(ts.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Coordinate(context.Background(), nil)
	if err == nil {
		t.Fatal("error envelope ignored")
	}
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *client.Error", err)
	}
	if ce.Status != http.StatusConflict || ce.Code != coord.CodeUnsafeArrival || ce.Message != "nope" {
		t.Fatalf("decoded error %+v", ce)
	}
	if !errors.Is(err, coord.ErrUnsafeArrival) {
		t.Fatalf("%v does not wrap coord.ErrUnsafeArrival", err)
	}
}

// TestHTTPReplyOverMaxFrameIsRefused: the HTTP client reads a reply of
// at most wire.MaxFrame bytes, the cap the binary client holds a frame
// to and the server holds a request body to. One byte more is refused
// with a *wire.DecodeError.
func TestHTTPReplyOverMaxFrameIsRefused(t *testing.T) {
	const reply = `{"status":"ok"}`
	for _, size := range []int{wire.MaxFrame, wire.MaxFrame + 1} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, reply+strings.Repeat(" ", size-len(reply)))
		}))
		c, err := New(ts.URL, Options{})
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.Health(context.Background())
		ts.Close()
		var de *wire.DecodeError
		switch {
		case size <= wire.MaxFrame && (err != nil || h.Status != "ok"):
			t.Fatalf("a %d-byte reply: %+v, %v", size, h, err)
		case size > wire.MaxFrame && !errors.As(err, &de):
			t.Fatalf("a %d-byte reply: %v, want a *wire.DecodeError", size, err)
		}
	}
}

func TestIsRetryable(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&Error{Code: api.CodeOverloaded}, true},
		{&Error{Code: api.CodeMailboxFull}, true},
		{&Error{Code: api.CodeDraining}, false},
		{&Error{Code: coord.CodeUnsafeArrival}, false},
		{errors.New("plain"), false},
		{nil, false},
		// Transport-level drops: the binary connection redials, HTTP
		// reconnects — all worth a retry.
		{wire.ErrConnClosed, true},
		{fmt.Errorf("call: %w", wire.ErrConnClosed), true},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{net.ErrClosed, true},
		{syscall.ECONNRESET, true},
		{syscall.ECONNREFUSED, true},
		{syscall.EPIPE, true},
		{&net.OpError{Op: "read", Err: errors.New("reset")}, true},
		{fmt.Errorf("wrapped: %w", &net.OpError{Op: "dial", Err: errors.New("refused")}), true},
	}
	for _, tc := range cases {
		if got := IsRetryable(tc.err); got != tc.want {
			t.Errorf("IsRetryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestBatchResponseErrTyped pins that per-request errors inside a 200
// batch response are the same typed *Error the call-level path returns
// (Status 0: the call itself succeeded), and that a request that
// succeeded carries a nil error — the interface, not a nil *Error
// inside one.
func TestBatchResponseErrTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"responses":[
			{"id":"ok","result":null},
			{"id":"big","result":null,"error":{"code":"too_many_queries","message":"too big"}},
			{"id":"busy","result":null,"error":{"code":"overloaded","message":"busy"}}]}`))
	}))
	defer ts.Close()
	c, err := New(ts.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resps, err := c.CoordinateBatch(context.Background(), make([]Request, 3))
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Err != nil {
		t.Fatalf("a successful request carries the non-nil error %#v", resps[0].Err)
	}
	var ce *Error
	if !errors.Is(resps[1].Err, coord.ErrTooManyQueries) || !errors.As(resps[1].Err, &ce) || ce.Status != 0 || ce.Message != "too big" {
		t.Fatalf("inline error %#v does not wrap coord.ErrTooManyQueries", resps[1].Err)
	}
	if !IsRetryable(resps[2].Err) {
		t.Fatal("inline overloaded error not retryable")
	}
}
