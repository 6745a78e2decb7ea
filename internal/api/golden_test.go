package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"entangled/internal/admission"
	"entangled/internal/coord"
	"entangled/internal/eq"
	"entangled/internal/persist"
	"entangled/internal/stream"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares v's indented JSON encoding with testdata/<name>.json
// byte for byte; `go test ./internal/api -update` rewrites the files.
// These payloads ARE the HTTP protocol: a diff here is a wire-format
// change and must be deliberate.
func golden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name+".json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/api -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload %s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
	// Every payload must round-trip through its own type.
	back := newOf(v)
	if err := json.Unmarshal(got, back); err != nil {
		t.Fatalf("%s: decoding golden payload: %v", name, err)
	}
	again, err := json.MarshalIndent(back, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), got) {
		t.Fatalf("%s: decode/re-encode not stable:\n%s\nvs\n%s", name, again, got)
	}
}

// newOf returns a fresh pointer to v's type for decoding.
func newOf(v any) any {
	switch v.(type) {
	case CoordinateRequest:
		return &CoordinateRequest{}
	case CoordinateResponse:
		return &CoordinateResponse{}
	case CreateSessionRequest:
		return &CreateSessionRequest{}
	case Update:
		return &Update{}
	case SessionStatus:
		return &SessionStatus{}
	case ErrorEnvelope:
		return &ErrorEnvelope{}
	case Metrics:
		return &Metrics{}
	case RecoveryStatus:
		return &RecoveryStatus{}
	case ClusterStatus:
		return &ClusterStatus{}
	case Health:
		return &Health{}
	case TenantsStatus:
		return &TenantsStatus{}
	default:
		panic("add the type to newOf")
	}
}

func sampleQuery() eq.Query {
	return eq.Query{
		ID:   "u1",
		Post: []eq.Atom{eq.NewAtom("R", eq.C("U2"), eq.V("y"))},
		Head: []eq.Atom{eq.NewAtom("R", eq.C("U1"), eq.V("x"))},
		Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
	}
}

func TestGoldenCoordinateRequest(t *testing.T) {
	golden(t, "coordinate_request", CoordinateRequest{
		Requests: []Request{{ID: "r1", Queries: []eq.Query{sampleQuery()}}},
	})
}

func TestGoldenCoordinateResponse(t *testing.T) {
	golden(t, "coordinate_response", CoordinateResponse{
		Responses: []Response{
			{ID: "r1", Result: &coord.Result{
				Set:       []int{0, 1},
				Values:    map[int]map[string]eq.Value{0: {"x": "t0"}, 1: {"x": "t0", "y": "t0"}},
				DBQueries: 2,
			}},
			{ID: "r2", Error: &Error{Code: coord.CodeUnsafe, Message: "coord: query set is not safe: unsafe queries [0]"}},
		},
	})
}

// twelveMembers is a 12-member result, so its keys sort as strings
// ("10" before "2"), with values that HTML escaping rewrites and values
// beyond ASCII.
func twelveMembers() CoordinateResponse {
	set := make([]int, 12)
	values := make(map[int]map[string]eq.Value, len(set))
	for i := range set {
		set[i] = i
		values[i] = map[string]eq.Value{"x": eq.Value("t" + strconv.Itoa(i))}
	}
	values[2]["y"] = "fish & chips"
	values[3]["y"] = "<b"
	values[4]["y"] = "b>"
	values[10]["y"] = "Zürich → 東京\u2028"
	return CoordinateResponse{Responses: []Response{{ID: "r<12", Result: &coord.Result{Set: set, Values: values, DBQueries: 12}}}}
}

// TestGoldenCoordinateResponseTwelve pins the twelve-member reply twice:
// through json.MarshalIndent, and as AppendJSON renders it, indented.
// MarshalIndent re-escapes what a Marshaler writes, so it alone would
// not see a '<' that AppendJSON let through.
func TestGoldenCoordinateResponseTwelve(t *testing.T) {
	rep := twelveMembers()
	golden(t, "coordinate_response_twelve", rep)
	want, err := os.ReadFile(filepath.Join("testdata", "coordinate_response_twelve.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Indent(&got, rep.AppendJSON(nil), "", "  "); err != nil {
		t.Fatal(err)
	}
	if got.WriteByte('\n'); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("AppendJSON drifted from the golden file:\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}

func TestGoldenCreateSessionRequest(t *testing.T) {
	golden(t, "create_session_request", CreateSessionRequest{ID: "alpha", ParkUnsafe: true})
}

func TestGoldenUpdate(t *testing.T) {
	golden(t, "session_update", UpdateFrom(stream.Update{
		Seq:      3,
		Admitted: true,
		TeamSize: 2,
		Stats:    coord.DeltaStats{Slot: 2, Components: 2, Dirty: 1, Reused: 1, DBQueries: 2},
		Elapsed:  1500 * time.Microsecond,
	}))
}

func TestGoldenSessionStatus(t *testing.T) {
	golden(t, "session_status", SessionStatus{
		ID:      "alpha",
		Live:    1,
		Queries: []eq.Query{sampleQuery()},
		Result: &coord.Result{
			Set:       []int{0},
			Values:    map[int]map[string]eq.Value{0: {"x": "t0", "y": "t0"}},
			DBQueries: 2,
		},
		Totals:   stream.Totals{Events: 4, Joins: 3, Leaves: 1, Dirty: 4, Reused: 2, DBQueries: 9},
		TeamSize: 1,
		Trace: &coord.Trace{Components: []coord.ComponentEvent{
			{Members: []int{0}, Set: []int{0}, Status: "grounded", SetSize: 1, Combined: "T(q0.x, 'c0')"},
		}},
	})
}

func TestGoldenErrorEnvelope(t *testing.T) {
	golden(t, "error_envelope", ErrorEnvelope{
		Error: &Error{Code: coord.CodeUnsafeArrival, Message: "coord: arrival would make the query set unsafe u9: would make queries [1 4] unsafe"},
	})
}

func TestGoldenMetrics(t *testing.T) {
	golden(t, "metrics", Metrics{
		UptimeS: 12.5,
		Coordinate: CoordinateMetrics{
			Requests: 128, Batches: 9, Errors: 1, Rejected: 2, DBQueries: 640,
			Latency: Histogram{BucketsNS: []int64{50_000, 100_000}, Counts: []int64{100, 20, 8}, Count: 128, SumNS: 7_300_000},
		},
		Sessions: SessionMetrics{
			Open: 1, Created: 2, Evicted: 1, Events: 52, DBQueries: 104,
			Latency:    Histogram{BucketsNS: []int64{50_000, 100_000}, Counts: []int64{40, 10, 2}, Count: 52, SumNS: 2_100_000},
			PerSession: []SessionCounters{{ID: "alpha", Live: 12, Parked: 1, Events: 52, DBQueries: 104}},
		},
		PlanCache: &PlanCacheMetrics{Hits: 700, Misses: 9, Entries: 9, HitRate: 0.987306064880113},
		Persist: &PersistMetrics{
			StoreAppends: 20002, StoreBytes: 1_200_000, StoreSyncs: 3, StoreRotations: 1,
			SessionAppends: 52, SessionBytes: 9_800, SessionSyncs: 52,
			OpenJournals: 1, SnapshotSeq: 2, Compactions: 1,
		},
		Cluster: &ClusterMetrics{
			Self: "n1", Nodes: 3,
			ForwardsSent: 40, ForwardsReceived: 25, ForwardFailures: 1, RouteMoved: 2,
			ScatterBatches: 6, FanoutCounts: []int64{90, 4, 6, 0},
			Peers: []PeerMetrics{
				{Name: "n2", Connected: true, Forwards: 30},
				{Name: "n3", Connected: false, Forwards: 10, Failures: 1},
			},
		},
		Admission: &AdmissionMetrics{
			Admitted: 120, Throttled: 8,
			Tenants: []TenantCounters{
				{Tenant: "default", Admitted: 40, InFlight: 1, DBQueriesSpent: 200, Dispatched: 40},
				{Tenant: "hot", Admitted: 80, Throttled: 8, ThrottledRate: 6, ThrottledBudget: 2,
					InFlight: 2, QueueDepth: 3, DBQueriesSpent: 512, Dispatched: 80},
			},
		},
	})
}

func TestGoldenClusterStatus(t *testing.T) {
	golden(t, "cluster_status", ClusterStatus{
		Enabled:      true,
		Self:         "n1",
		VirtualNodes: 64,
		Version:      "ring-9f86d081",
		Nodes: []ClusterNode{
			{Name: "n1", Addr: "10.0.0.1:9101", Self: true},
			{Name: "n2", Addr: "10.0.0.2:9101", Connected: true},
			{Name: "n3", Addr: "10.0.0.3:9101"},
		},
		Relations: []RelationPlacement{{Relation: "T", Column: 1}},
	})
}

func TestGoldenClusterHealth(t *testing.T) {
	golden(t, "health_cluster", Health{
		Status:   "ok",
		Sessions: 4,
		UptimeS:  99.5,
		Cluster:  &ClusterHealth{Self: "n2", Nodes: 3, PeersDown: []string{"n3"}},
	})
}

func TestGoldenRouteMovedEnvelope(t *testing.T) {
	golden(t, "error_route_moved", ErrorEnvelope{
		Error: &Error{
			Code:    CodeRouteMoved,
			Message: "cluster: route moved: session alpha is owned by n2",
			Owner:   "n2",
		},
	})
}

func TestGoldenRecoveryStatus(t *testing.T) {
	golden(t, "recovery_status", RecoveryStatus{
		Enabled: true,
		DataDir: "/var/lib/entangled",
		RecoveryStats: persist.RecoveryStats{
			SnapshotSeq:      2,
			SnapshotFrames:   20002,
			WALFrames:        17,
			WALSegments:      1,
			TornTail:         true,
			Sessions:         2,
			SessionEvents:    52,
			SessionTornTails: 1,
			DurationMS:       8,
		},
		RecoveredSessions: []string{"alpha", "beta"},
	})
}

func TestGoldenThrottledEnvelope(t *testing.T) {
	golden(t, "error_throttled", ErrorEnvelope{
		Error: &Error{
			Code:         CodeThrottled,
			Message:      `admission: tenant "hot" throttled (rate)`,
			RetryAfterMS: 100,
		},
	})
}

func TestGoldenTenantsStatus(t *testing.T) {
	golden(t, "tenants_status", TenantsStatus{
		Enabled: true,
		Tenants: []TenantStatus{
			{
				Tenant:         "default",
				Policy:         admission.Policy{Weight: 1},
				InFlight:       1,
				Admitted:       40,
				DBQueriesSpent: 200,
			},
			{
				Tenant: "hot",
				Policy: admission.Policy{
					Rate: 50, Burst: 50, MaxInFlight: 8,
					DBQueriesPerSec: 200, DBQueriesBurst: 200, Weight: 1,
				},
				InFlight:       2,
				QueueDepth:     3,
				Admitted:       80,
				Throttled:      8,
				DBQueriesSpent: 512,
				DBBalance:      -44.5,
			},
		},
	})
}
