package simulate

import (
	"fmt"
	"math/rand"
	"strconv"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/graph"
	"entangled/internal/system"
	"entangled/internal/workload"
)

// Config parameterises a simulation run.
type Config struct {
	// Network is the social structure; a query's coordination partners
	// are sampled from its user's successors. Required.
	Network *graph.Digraph
	// TableRows sizes the queried table (default 1000).
	TableRows int
	// Rounds is the number of simulation rounds (default 50).
	Rounds int
	// ArrivalsPerRound is how many users submit per round (default 5).
	ArrivalsPerRound int
	// CoordProb is the probability that a new request names a partner
	// (default 0.7); with the remaining probability the query is free
	// and coordinates alone.
	CoordProb float64
	// MaxPartners bounds how many successors one request names
	// (default 2).
	MaxPartners int
	// TTL is the number of rounds a request may wait before it expires
	// and is cancelled (default 10).
	TTL int
	// Seed drives all randomness; equal seeds give equal runs.
	Seed int64
}

func (c Config) withDefaults() (Config, error) {
	if c.Network == nil {
		return c, fmt.Errorf("simulate: Config.Network is required")
	}
	if c.TableRows == 0 {
		c.TableRows = 1000
	}
	if c.Rounds == 0 {
		c.Rounds = 50
	}
	if c.ArrivalsPerRound == 0 {
		c.ArrivalsPerRound = 5
	}
	if c.CoordProb == 0 {
		c.CoordProb = 0.7
	}
	if c.MaxPartners == 0 {
		c.MaxPartners = 2
	}
	if c.TTL == 0 {
		c.TTL = 10
	}
	return c, nil
}

// Stats summarises a simulation run.
type Stats struct {
	Rounds       int
	Submitted    int
	Answered     int
	Expired      int
	PendingAtEnd int
	// Batches counts coordination events (one per non-empty answer).
	Batches int
	// MaxBatch is the largest coordinating set answered at once.
	MaxBatch int
	// AvgBatch is the mean coordinating-set size over batches.
	AvgBatch float64
	// AvgWaitRounds is the mean number of rounds answered queries
	// waited (0 = answered on arrival).
	AvgWaitRounds float64
	// MaxPending is the high-water mark of the pending queue.
	MaxPending int
}

// Run executes the simulation and returns its statistics. The run is
// deterministic in Config.Seed.
func Run(cfg Config) (Stats, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Stats{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	inst := db.NewInstance()
	workload.UserTable(inst, cfg.TableRows)
	c := system.New(inst)

	var st Stats
	st.Rounds = cfg.Rounds
	submittedAt := map[string]int{} // query id -> round
	busy := map[int]bool{}          // users with a pending request (keeps the set safe)
	var totalWait int

	n := cfg.Network.N()
	if n == 0 {
		return st, fmt.Errorf("simulate: empty network")
	}
	seq := 0
	for round := 0; round < cfg.Rounds; round++ {
		// Expire overdue requests.
		for _, q := range c.Pending() {
			if round-submittedAt[q.ID] >= cfg.TTL {
				if c.Cancel(q.ID) {
					st.Expired++
					delete(submittedAt, q.ID)
					busy[userOf(q)] = false
				}
			}
		}
		// New arrivals.
		for a := 0; a < cfg.ArrivalsPerRound; a++ {
			u := rng.Intn(n)
			if busy[u] {
				continue // one active request per user keeps safety
			}
			q := makeQuery(cfg, rng, u, seq)
			seq++
			st.Submitted++
			submittedAt[q.ID] = round
			busy[u] = true
			out, err := c.Submit(q)
			if err != nil {
				return st, err
			}
			if len(out.Coordinated) > 0 {
				st.Batches++
				st.Answered += len(out.Coordinated)
				if len(out.Coordinated) > st.MaxBatch {
					st.MaxBatch = len(out.Coordinated)
				}
				st.AvgBatch += float64(len(out.Coordinated))
				for _, cq := range out.Coordinated {
					totalWait += round - submittedAt[cq.ID]
					delete(submittedAt, cq.ID)
					busy[userOf(cq)] = false
				}
			}
			if p := c.PendingCount(); p > st.MaxPending {
				st.MaxPending = p
			}
		}
	}
	st.PendingAtEnd = c.PendingCount()
	if st.Batches > 0 {
		st.AvgBatch /= float64(st.Batches)
	}
	if st.Answered > 0 {
		st.AvgWaitRounds = float64(totalWait) / float64(st.Answered)
	}
	return st, nil
}

// makeQuery builds user u's request: head R(U_u, x), a satisfiable
// body, and — with probability CoordProb — postconditions naming up to
// MaxPartners distinct network successors.
func makeQuery(cfg Config, rng *rand.Rand, u, seq int) eq.Query {
	q := eq.Query{
		ID:   "r" + strconv.Itoa(seq) + "-u" + strconv.Itoa(u),
		Head: []eq.Atom{eq.NewAtom("R", eq.C(workload.User(u)), eq.V("x"))},
		Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C(eq.Value("c"+strconv.Itoa(rng.Intn(cfg.TableRows)))))},
	}
	succ := cfg.Network.Succ(u)
	if len(succ) == 0 || rng.Float64() >= cfg.CoordProb {
		return q
	}
	want := 1 + rng.Intn(cfg.MaxPartners)
	perm := rng.Perm(len(succ))
	for k := 0; k < want && k < len(succ); k++ {
		v := succ[perm[k]]
		q.Post = append(q.Post, eq.NewAtom("R", eq.C(workload.User(v)), eq.V("y"+strconv.Itoa(k))))
	}
	return q
}

// userOf recovers the submitting user index from a simulator query.
func userOf(q eq.Query) int {
	name := string(q.Head[0].Args[0].Const())
	u, _ := strconv.Atoi(name[1:]) // names are "U<i>"
	return u
}
