package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"entangled/internal/api"
	"entangled/internal/wire"
)

// httpTransport speaks the HTTP/JSON protocol.
type httpTransport struct {
	base   string
	hc     *http.Client
	tenant string
}

// call runs one round trip: encode the call's JSON body (if any), read
// the reply (wire.ReadBody), decode a 2xx body into its reply (if any),
// and turn every non-2xx into a typed *Error from the wire envelope.
func (t *httpTransport) call(ctx context.Context, c wire.Call) error {
	method := c.Route().Method
	if method == "" {
		return fmt.Errorf("client: %s requires the binary protocol (tcp:// base URL)", c.Route().Name)
	}
	path, in, out := c.HTTP()
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, body)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if t.tenant != "" {
		req.Header.Set(api.TenantHeader, t.tenant)
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	p := wire.GetBuf()
	defer wire.PutBuf(p)
	reply, err := wire.ReadBody(resp.Body, p, resp.ContentLength)
	if resp.StatusCode >= 300 { // a redirect is never followed (New)
		var env api.ErrorEnvelope
		if err != nil || json.Unmarshal(reply, &env) != nil || env.Error == nil {
			return &Error{Status: resp.StatusCode, Code: api.CodeInternal,
				Message: fmt.Sprintf("%s %s: HTTP %d with unreadable error body", method, path, resp.StatusCode)}
		}
		e := env.Error
		e.Status = resp.StatusCode
		if e.RetryAfterMS == 0 {
			// Fall back to the standard header (whole seconds), which
			// the server also sets — a proxy may have stripped or
			// rewritten the body.
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				e.RetryAfterMS = int64(s) * 1000
			}
		}
		return e
	}
	if err == nil && out != nil {
		err = json.Unmarshal(reply, out)
	}
	if err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

func (t *httpTransport) subscribe(context.Context, string, func(Notification)) (func(), error) {
	return nil, fmt.Errorf("client: push subscriptions require the binary protocol (tcp:// base URL); poll Status over HTTP")
}

func (t *httpTransport) close() error { return nil }
