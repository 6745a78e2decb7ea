package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"

	"entangled/internal/api"
	"entangled/internal/client"
	"entangled/internal/coord"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/stream"
	"entangled/internal/wire"
)

// opKind discriminates the calls a script is made of.
type opKind uint8

const (
	opBatch      opKind = iota // one CoordinateBatch carrying len(reqs) requests
	opJoin                     // one session join
	opLeave                    // one session leave
	opConsistent               // one in-process consistent.Coordinate
)

// op is one call of a workload's fixed script: what is sent, how many
// operations it carries, and the outcome digest every execution of it
// must reproduce (recorded, and fully verified, during warm-up).
type op struct {
	kind    opKind
	cli     int // which of the worker's clients sends it (one per tenant)
	session string
	query   eq.Query // join
	id      string   // leave: the departing query's ID
	reqs    []client.Request
	cons    *consCase
	n       int // operations carried: requests of a batch, else 1
	// forwarded marks a session event whose session another node than
	// the one called owns, so the call costs one forward hop.
	forwarded bool
	want      uint64
}

// outcome is what one execution of an op returned, reduced to what the
// benchmark checks and counts.
type outcome struct {
	digest uint64
	dbq    int64
}

// digestResult hashes a coordination result independently of map
// iteration order: the set, every member's assignment by sorted
// variable name, and the exact DBQueries.
func digestResult(h *hasher, r *coord.Result) {
	if r == nil {
		h.str("nil")
		return
	}
	h.num(int64(len(r.Set)))
	for _, qi := range r.Set {
		h.num(int64(qi))
		vals := r.Values[qi]
		names := make([]string, 0, len(vals))
		for v := range vals {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, v := range names {
			h.str(v)
			h.str(string(vals[v]))
		}
	}
	h.num(r.DBQueries)
}

// hasher is FNV-1a over length-delimited fields.
type hasher struct{ h uint64 }

func newHasher() *hasher { return &hasher{h: 14695981039346656037} }

func (h *hasher) byte(b byte) {
	h.h ^= uint64(b)
	h.h *= 1099511628211
}

func (h *hasher) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0xff)
}

func (h *hasher) num(x int64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(x >> (8 * i)))
	}
}

// batchOutcome reduces a batch's responses; any per-request error fails
// the call (the workloads are built so that nothing is refused).
func batchOutcome(ids []string, results []*coord.Result) outcome {
	h := newHasher()
	var dbq int64
	for i, r := range results {
		h.str(ids[i])
		digestResult(h, r)
		if r != nil {
			dbq += r.DBQueries
		}
	}
	return outcome{digest: h.h, dbq: dbq}
}

// updateOutcome reduces a session update. The slot number is left out:
// it grows between compactions, everything else repeats every cycle.
func updateOutcome(up api.Update) (outcome, error) {
	if up.Error != nil {
		return outcome{}, up.Error
	}
	if !up.Admitted || up.Parked {
		return outcome{}, fmt.Errorf("event not admitted (admitted=%v parked=%v)", up.Admitted, up.Parked)
	}
	h := newHasher()
	h.num(int64(up.TeamSize))
	h.num(int64(up.Stats.Components))
	h.num(int64(up.Stats.Dirty))
	h.num(int64(up.Stats.Reused))
	h.num(up.Stats.DBQueries)
	return outcome{digest: h.h, dbq: up.Stats.DBQueries}, nil
}

// execClient sends the op through the typed client — the socket-level
// entry point every served workload is measured at.
func execClient(ctx context.Context, c *client.Client, o *op) (outcome, error) {
	switch o.kind {
	case opBatch:
		resps, err := c.CoordinateBatch(ctx, o.reqs)
		if err != nil {
			return outcome{}, err
		}
		ids := make([]string, len(resps))
		results := make([]*coord.Result, len(resps))
		for i, r := range resps {
			if r.Err != nil {
				return outcome{}, fmt.Errorf("request %s: %w", r.ID, r.Err)
			}
			ids[i], results[i] = r.ID, r.Result
		}
		return batchOutcome(ids, results), nil
	case opJoin:
		up, err := c.Session(o.session).Join(ctx, o.query)
		if err != nil {
			return outcome{}, err
		}
		return updateOutcome(up)
	case opLeave:
		up, err := c.Session(o.session).Leave(ctx, o.id)
		if err != nil {
			return outcome{}, err
		}
		return updateOutcome(up)
	}
	return outcome{}, fmt.Errorf("op kind %d is not served", o.kind)
}

// httpRequest renders the op as the HTTP request the client would send,
// for driving srv.ServeHTTP directly on a recorder.
func httpRequest(o *op, tenant string) (*http.Request, error) {
	var path string
	var body any
	switch o.kind {
	case opBatch:
		path, body = "/v1/coordinate", api.CoordinateRequest{Requests: o.reqs}
	case opJoin:
		path, body = "/v1/sessions/"+o.session+"/join", api.JoinRequest{Query: o.query}
	case opLeave:
		path, body = "/v1/sessions/"+o.session+"/leave", api.LeaveRequest{ID: o.id}
	default:
		return nil, fmt.Errorf("op kind %d has no HTTP form", o.kind)
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	r.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		r.Header.Set(api.TenantHeader, tenant)
	}
	return r, nil
}

// execHandler drives the server's HTTP handler without a socket.
func execHandler(h http.Handler, r *http.Request) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code >= 300 {
		return fmt.Errorf("handler answered HTTP %d: %s", rec.Code, rec.Body.String())
	}
	return nil
}

// execWire drives ServeWire over an in-memory pipe: the binary
// protocol's server side without the kernel's TCP path.
func execWire(ctx context.Context, cc *wire.ClientConn, o *op) error {
	var err error
	switch o.kind {
	case opBatch:
		_, _, err = cc.Call(ctx, wire.KindCoordinate, wire.CoordinateReq{Requests: o.reqs}.Encode)
	case opJoin:
		_, _, err = cc.Call(ctx, wire.KindJoin, wire.JoinReq{Session: o.session, Query: o.query}.Encode)
	case opLeave:
		_, _, err = cc.Call(ctx, wire.KindLeave, wire.LeaveReq{Session: o.session, QueryID: o.id}.Encode)
	default:
		err = fmt.Errorf("op kind %d has no binary form", o.kind)
	}
	return err
}

// engineRequests converts a batch op for engine.CoordinateMany.
func engineRequests(o *op) []engine.Request {
	out := make([]engine.Request, len(o.reqs))
	for i, r := range o.reqs {
		out[i] = engine.Request{ID: r.ID, Queries: r.Queries}
	}
	return out
}

// streamEvent converts a session op for stream.Session.Apply.
func streamEvent(o *op) stream.Event {
	if o.kind == opJoin {
		return stream.Event{Kind: stream.JoinEvent, Query: o.query}
	}
	return stream.Event{Kind: stream.LeaveEvent, ID: o.id}
}

// shiftBodies returns qs with every body constant c<k> moved to
// c<(k+off) mod rows>. It is how a seed varies a frozen query shape:
// the coordination structure, and so the exact DBQueries, stay the
// same while the values the store is probed with change. Constants of
// any other form (the generators' "missing" values) are left alone.
func shiftBodies(qs []eq.Query, off, rows int) []eq.Query {
	out := make([]eq.Query, len(qs))
	for i, q := range qs {
		q.Body = append([]eq.Atom(nil), q.Body...)
		for j, a := range q.Body {
			a = a.Clone()
			for k, t := range a.Args {
				if t.IsVar() || len(t.Name) < 2 || t.Name[0] != 'c' {
					continue
				}
				if v, err := strconv.Atoi(t.Name[1:]); err == nil {
					a.Args[k] = eq.C(eq.Value("c" + strconv.Itoa((v+off)%rows)))
				}
			}
			q.Body[j] = a
		}
		out[i] = q
	}
	return out
}
