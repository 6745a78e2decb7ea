// Command socialsim simulates a population of users submitting
// entangled coordination requests to the online module over discrete
// rounds (the §7 "on-line setting"), printing answer rates, waiting
// times and batch sizes.
//
// Usage:
//
//	socialsim [-users N] [-m K] [-rounds R] [-arrivals A] [-coordprob P] [-ttl T] [-seed S]
//
// The social network is a Barabási–Albert scale-free graph with
// attachment parameter -m, the same model the paper's evaluation uses.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"entangled/internal/netgen"
	"entangled/internal/simulate"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "socialsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("socialsim", flag.ExitOnError)
	users := fs.Int("users", 200, "population size")
	m := fs.Int("m", 2, "scale-free attachment parameter")
	rounds := fs.Int("rounds", 100, "simulation rounds")
	arrivals := fs.Int("arrivals", 5, "request arrivals per round")
	coordprob := fs.Float64("coordprob", 0.7, "probability a request names partners")
	ttl := fs.Int("ttl", 10, "rounds before a pending request expires")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	// No users is the simulator's own refusal, an empty network.
	if err := cmp.Or(atLeast("users", *users, 0), atLeast("m", *m, 1), atLeast("rounds", *rounds, 1),
		atLeast("arrivals", *arrivals, 1), atLeast("ttl", *ttl, 1)); err != nil {
		return err
	}

	g := netgen.BarabasiAlbert(*users, *m, rand.New(rand.NewSource(*seed)))
	st, err := simulate.Run(simulate.Config{
		Network:          g,
		Rounds:           *rounds,
		ArrivalsPerRound: *arrivals,
		CoordProb:        *coordprob,
		TTL:              *ttl,
		Seed:             *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "network: %d users, %d edges (Barabási–Albert m=%d)\n", g.N(), g.M(), *m)
	fmt.Fprintf(stdout, "rounds: %d, arrivals/round: %d, coordprob: %.2f, ttl: %d\n\n", *rounds, *arrivals, *coordprob, *ttl)
	fmt.Fprintf(stdout, "submitted:       %6d\n", st.Submitted)
	fmt.Fprintf(stdout, "answered:        %6d (%.1f%%)\n", st.Answered, pct(st.Answered, st.Submitted))
	fmt.Fprintf(stdout, "expired:         %6d (%.1f%%)\n", st.Expired, pct(st.Expired, st.Submitted))
	fmt.Fprintf(stdout, "pending at end:  %6d\n", st.PendingAtEnd)
	fmt.Fprintf(stdout, "batches:         %6d (avg size %.2f, max %d)\n", st.Batches, st.AvgBatch, st.MaxBatch)
	fmt.Fprintf(stdout, "avg wait rounds: %6.2f\n", st.AvgWaitRounds)
	fmt.Fprintf(stdout, "max pending:     %6d\n", st.MaxPending)
	return nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// atLeast refuses a count flag below the least value it can mean.
func atLeast(flag string, v, least int) error {
	if v < least {
		return fmt.Errorf("-%s must be at least %d, not %d", flag, least, v)
	}
	return nil
}
