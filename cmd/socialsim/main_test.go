package main

import (
	"os"
	"path/filepath"
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

// TestCountFlagsRefused: a count flag below what it can mean is an
// error naming the flag, before the network is built.
func TestCountFlagsRefused(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-users -3", "-users must be at least 0, not -3"},
		{"-m 0", "-m must be at least 1, not 0"},
		{"-rounds 0", "-rounds must be at least 1, not 0"},
		{"-arrivals -1", "-arrivals must be at least 1, not -1"},
		{"-ttl 0", "-ttl must be at least 1, not 0"},
	} {
		if err := run(strings.Fields(tc.args), new(strings.Builder)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestMainRunsTheProgram runs main as the binary does: os.Args in, the tallies on stdout.
func TestMainRunsTheProgram(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func(args []string, out *os.File) { os.Args, os.Stdout = args, out; f.Close() }(os.Args, os.Stdout)
	os.Args, os.Stdout = []string{"socialsim", "-seed", "1", "-rounds", "20"}, f
	main()
	if out, _ := os.ReadFile(path); !strings.Contains(string(out), "submitted:           89") {
		t.Errorf("%v printed:\n%s\nwant a line with %q", os.Args, out, "submitted:           89")
	}
}
