package main

import (
	"strings"
	"testing"
)

// TestTwentyRounds holds what seed 1 determines over 20 rounds: the
// network, the answer and expiry counts, and the batch sizes.
func TestTwentyRounds(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-seed", "1", "-rounds", "20"}, &out); err != nil {
		t.Fatal(err)
	}
	want := `network: 200 users, 397 edges (Barabási–Albert m=2)
rounds: 20, arrivals/round: 5, coordprob: 0.70, ttl: 10

submitted:           89
answered:            23 (25.8%)
expired:             33 (37.1%)
pending at end:      33
batches:             22 (avg size 1.05, max 2)
avg wait rounds:   0.17
max pending:         33
`
	if out.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestEmptyNetworkFails returns the simulator's refusal as run's error.
func TestEmptyNetworkFails(t *testing.T) {
	if err := run([]string{"-users", "0"}, new(strings.Builder)); err == nil || !strings.Contains(err.Error(), "empty network") {
		t.Errorf("no users: err %v, want the empty-network refusal", err)
	}
}
