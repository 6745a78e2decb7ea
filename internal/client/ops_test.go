package client

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"entangled/internal/api"
	"entangled/internal/cluster"
	"entangled/internal/engine"
	"entangled/internal/server"
	"entangled/internal/wire"
	"entangled/internal/workload"
)

// everyTransport boots one single-node cluster server speaking both
// protocols and returns one transport of each kind pointed at it.
func everyTransport(t *testing.T) map[string]transport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r, err := cluster.New(cluster.Config{Self: "n1", Nodes: []cluster.Node{{Name: "n1", Addr: ln.Addr().String()}}},
		cluster.Options{Placement: workload.Placement()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(engine.New(workload.NewStore(1, 32, 0), engine.Options{}), server.Options{Cluster: r})
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln)
	hs := httptest.NewServer(srv)
	out := map[string]transport{}
	for name, base := range map[string]string{"http": hs.URL, "binary": "tcp://" + ln.Addr().String(), "cluster": "cluster://" + ln.Addr().String()} {
		c, err := New(base, Options{})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = c.t
	}
	t.Cleanup(func() {
		for _, tr := range out {
			tr.close()
		}
		hs.Close()
		srv.Close()
		r.Close()
	})
	return out
}

// roundTrip runs one operation over every transport and demands the
// same reply from each (after scrub removes what legitimately differs:
// session names, wall-clock fields). A single-protocol operation must
// be refused, without a round trip, by the transports that cannot carry
// it.
func roundTrip[Q wireReq, R any](t *testing.T, ts map[string]transport, o *op[Q, R], q func(proto string) Q, scrub func(proto string, r *R)) {
	t.Helper()
	var first *R
	for _, proto := range []string{"http", "binary", "cluster"} {
		rep, err := invoke(context.Background(), ts[proto], o, q(proto))
		if carried := (proto == "http" && o.method != "") || (proto != "http" && o.kind != 0); !carried {
			if err == nil || !strings.HasPrefix(err.Error(), "client: ") {
				t.Errorf("%s over %s: error %v, want a client-side refusal", o.name, proto, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s over %s: %v", o.name, proto, err)
			continue
		}
		if scrub != nil {
			scrub(proto, &rep)
		}
		if first == nil {
			first = &rep
		} else if !reflect.DeepEqual(*first, rep) {
			t.Errorf("%s over %s differs from http:\n%+v\n%+v", o.name, proto, rep, *first)
		}
	}
}

// TestEveryOpRoundTripsOverEveryTransport drives each client op
// descriptor through the HTTP, binary and cluster transports against
// one real server: the generic call paths must carry every operation,
// and all transports must decode the same DTOs.
func TestEveryOpRoundTripsOverEveryTransport(t *testing.T) {
	ts := everyTransport(t)
	none0 := func(string) none { return none{} }
	sess := func(proto string) string { return "rt-" + proto }

	roundTrip(t, ts, createOp, func(p string) wire.CreateSessionReq { return wire.CreateSessionReq{ID: sess(p), ParkUnsafe: true} },
		func(p string, r *api.CreateSessionResponse) { r.ID = strings.TrimSuffix(r.ID, p) })
	roundTrip(t, ts, joinOp, func(p string) wire.JoinReq {
		return wire.JoinReq{Session: sess(p), Query: workload.ChainQuery(0, 0, 32)}
	},
		func(_ string, r *api.Update) { r.ElapsedNS = 0 })
	roundTrip(t, ts, joinOp, func(p string) wire.JoinReq {
		return wire.JoinReq{Session: sess(p), Query: workload.ChainQuery(0, 1, 32)}
	},
		func(_ string, r *api.Update) { r.ElapsedNS = 0 })
	roundTrip(t, ts, statusOp, func(p string) wire.StatusReq { return wire.StatusReq{Session: sess(p), Trace: true} },
		func(_ string, r *api.SessionStatus) {
			if r.Live != 2 || r.Trace == nil {
				t.Errorf("status %+v: want 2 live queries and a trace", *r)
			}
			r.ID = ""
		})
	roundTrip(t, ts, leaveOp, func(p string) wire.LeaveReq {
		return wire.LeaveReq{Session: sess(p), QueryID: workload.ChainQuery(0, 1, 32).ID}
	}, func(_ string, r *api.Update) { r.ElapsedNS = 0 })
	roundTrip(t, ts, subscribeOp, func(p string) wire.SessionReq { return wire.SessionReq{Session: sess(p)} }, nil)
	roundTrip(t, ts, coordinateOp, func(string) wire.CoordinateReq {
		return wire.CoordinateReq{Requests: []api.Request{{ID: "a", Queries: workload.ListQueriesAt(4, 3)}, {ID: "b", Queries: workload.ListQueriesAt(3, 5)}}}
	}, func(_ string, r *api.CoordinateResponse) {
		if len(r.Responses) != 2 || r.Responses[0].Result == nil || r.Responses[0].Result.DBQueries == 0 {
			t.Errorf("coordinate reply %+v", *r)
		}
	})
	roundTrip(t, ts, healthOp, none0, func(_ string, r *api.Health) { r.UptimeS = 0 })
	roundTrip(t, ts, clusterOp, none0, func(_ string, r *api.ClusterStatus) {
		if !r.Enabled || r.Self != "n1" {
			t.Errorf("cluster view %+v", *r)
		}
	})
	roundTrip(t, ts, recoveryOp, none0, nil)
	roundTrip(t, ts, tenantsOp, none0, nil)
	roundTrip(t, ts, metricsOp, none0, func(_ string, r *api.Metrics) {
		if r.Sessions.Open != 3 {
			t.Errorf("metrics count %d open sessions, want one per transport", r.Sessions.Open)
		}
	})
	roundTrip(t, ts, deleteOp, func(p string) wire.SessionReq { return wire.SessionReq{Session: sess(p)} }, nil)

	// Service errors come back as the same typed *Error everywhere.
	for proto, tr := range ts {
		_, err := invoke(context.Background(), tr, statusOp, wire.StatusReq{Session: sess(proto)})
		var e *Error
		if !errors.As(err, &e) || e.Code != api.CodeSessionNotFound || e.Status != 404 {
			t.Errorf("status of a deleted session over %s: %v", proto, err)
		}
	}
}

// TestTenantCallErrorsNameTheOperation: with Options.Tenant set every
// frame travels inside a tenant envelope, but a failed call is still
// reported as the operation the caller made — "join call", "decoding
// status reply" — never as the envelope.
func TestTenantCallErrorsNameTheOperation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A peer that hangs up on the first request, then answers the second
	// (on the redialed connection) with a 200 whose body is garbage.
	go func() {
		for n := 0; ; n++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(c)
			var magic [len(wire.Magic)]byte
			if _, err := io.ReadFull(br, magic[:]); err == nil {
				if payload, err := wire.ReadFrame(br, nil); err == nil && n > 0 {
					var e wire.Enc
					wire.PutHeader(&e, wire.Header{Kind: wire.KindReply, ID: wire.GetHeader(wire.NewDec(payload)).ID})
					wire.PutReplyOK(&e, 200)
					e.Byte(0xff)
					wire.WriteFrame(c, e.Bytes())
					io.Copy(io.Discard, br)
				}
			}
			c.Close()
		}
	}()
	c, err := New("tcp://"+ln.Addr().String(), Options{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Session("s").Join(context.Background(), workload.ChainQuery(0, 0, 8))
	if err == nil || !strings.Contains(err.Error(), "join call") || strings.Contains(err.Error(), "tenant") {
		t.Fatalf("dropped join under a tenant: %v; want an error naming the join call", err)
	}
	if !IsRetryable(err) {
		t.Fatalf("dropped join must stay retryable: %v", err)
	}
	_, err = c.Session("s").Status(context.Background(), false)
	if err == nil || !strings.Contains(err.Error(), "decoding status reply") {
		t.Fatalf("garbage status reply under a tenant: %v; want an error naming the status reply", err)
	}
}
