package main

// metricSpec declares one reported metric. The same declarations, with
// the same names, units, directions and bounds, are in BENCHMARK.json
// at the repository root; the package's test holds the two equal.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them, from the untraced run. Bound is the share of
// the parent's median by which the metric may get worse. dbq_per_op
// repeats exactly; its bound here is the smallest the benchmark
// contract's arithmetic is safe with, and -compare holds it to zero.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.03},
	{"heap_live_mb", "MB", "lower", 0.10},
	{"dbq_per_op", "queries", "lower", 0.001},
}

// clientTiming are the wall-clock and CPU measurements of the closed
// loop. The issue defines them as end-to-end metrics with a bound of a
// tenth and says to demote, not widen, the ones that do not hold it.
// Over ten seeds on the sizing box they spread 2-13 % in one sweep and
// 3-42 % in another (bench/README.md), so they are per-layer metrics
// under the client. prefix, taken from the traced run's untraced
// reference phase. The untraced
// run measures and prints them too, under these names, and -compare
// shows them against this bound without gating on them.
var clientTiming = []metricSpec{
	{"throughput_ops_s", "1/s", "higher", 0.10},
	{"latency_p50_us", "us", "lower", 0.10},
	{"latency_tail_us", "us", "lower", 0.10},
	{"cpu_us_per_op", "us", "lower", 0.10},
}

// oneWorkload are the issue's end-to-end metrics that apply to one
// workload only, so the contract's list, which every workload reports
// and none at 0, cannot hold them. The untraced run reports them in
// its result and -compare gates on them: cross-node messages exactly,
// recovery time at a tenth.
var oneWorkload = []metricSpec{
	{"xnode_msgs_per_op", "msgs", "lower", 0},
	{"recovery_ms", "ms", "lower", 0.10},
}

// perLayer are the single-layer metrics, from the traced run. A layer a
// workload does not exercise reports 0.
var perLayer = []metricSpec{
	{Name: "eq.json_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "api.encode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "api.decode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "api.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "api.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.encode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "client.throughput_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "client.latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.latency_tail_us", Unit: "us", Better: "lower"},
	{Name: "client.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "client.self_us_per_call", Unit: "us", Better: "lower"},
	{Name: "client.redials", Unit: "count", Better: "lower"},
	{Name: "server.handler_self_us_per_call", Unit: "us", Better: "lower"},
	{Name: "server.submit_to_reply_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.batch_factor", Unit: "ratio", Better: "higher"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "admission.decide_done_ns", Unit: "ns", Better: "lower"},
	{Name: "admission.throttled", Unit: "count", Better: "lower"},
	{Name: "engine.many_us_per_op", Unit: "us", Better: "lower"},
	{Name: "engine.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "engine.routed_share", Unit: "ratio", Better: "higher"},
	{Name: "coord.scc_us_per_op", Unit: "us", Better: "lower"},
	{Name: "coord.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "coord.dbq_per_op", Unit: "queries", Better: "lower"},
	{Name: "coord.team_share", Unit: "ratio", Better: "higher"},
	{Name: "unify.mgu_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "graph.condense_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "db.solve_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "db.queries_per_op", Unit: "queries", Better: "lower"},
	{Name: "db.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "db.plan_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "stream.join_us", Unit: "us", Better: "lower"},
	{Name: "stream.leave_us", Unit: "us", Better: "lower"},
	{Name: "stream.self_us_per_event", Unit: "us", Better: "lower"},
	{Name: "stream.dirty_per_event", Unit: "count", Better: "lower"},
	{Name: "stream.reused_per_event", Unit: "count", Better: "higher"},
	{Name: "stream.dbq_per_event", Unit: "queries", Better: "lower"},
	{Name: "stream.compactions", Unit: "count", Better: "lower"},
	{Name: "persist.append_us", Unit: "us", Better: "lower"},
	{Name: "persist.fsync_us", Unit: "us", Better: "lower"},
	{Name: "persist.self_us_per_event", Unit: "us", Better: "lower"},
	{Name: "persist.fsyncs_per_event", Unit: "count", Better: "lower"},
	{Name: "persist.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "persist.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "persist.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.recover_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "persist.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.route_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.forward_us", Unit: "us", Better: "lower"},
	{Name: "cluster.hop_self_us_per_call", Unit: "us", Better: "lower"},
	{Name: "cluster.forwarded_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.scatter_fanout_mean", Unit: "count", Better: "lower"},
	{Name: "cluster.forward_failures", Unit: "count", Better: "lower"},
	{Name: "cluster.xnode_msgs_per_op", Unit: "msgs", Better: "lower"},
	{Name: "consistent.coordinate_ms", Unit: "ms", Better: "lower"},
	{Name: "consistent.dbq_per_op", Unit: "queries", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
}

// value is one metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
