// Package workload builds the query sets and database contents of the
// paper's experimental evaluation (§6): the list-structure and
// scale-free-network workloads driving the SCC Coordination Algorithm
// (Figures 4-6) and the flight-coordination workloads driving the
// Consistent Coordination Algorithm (Figures 7-8), plus randomized
// workloads used by the test suite.
//
// For the streaming paths it also generates arrival sequences:
// Arrivals produces deterministic join/leave event streams (steady,
// bursty, or churn-heavy) over backward-chain scenarios (ChainQuery),
// replayed by the stream and server tests.
// Arrival is stream-agnostic so this package stays below
// internal/stream in the import graph.
package workload
