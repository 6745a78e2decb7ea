package workload

import (
	"math/rand"
	"strconv"
	"time"

	"entangled/internal/consistent"
	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/graph"
	"entangled/internal/netgen"
)

// UserTable creates the queried table of the §6.1 experiments: a
// two-column relation T(key, val) with rows rows, indexed on val so each
// query body grounds through an index probe, like the MySQL setup. Every
// generated body matches at least one tuple (the paper's "most
// demanding" setting: nothing is pruned).
func UserTable(inst *db.Instance, rows int) *db.Relation {
	t := inst.CreateRelation("T", "key", "val")
	fillUserTable(t.Insert, rows)
	t.BuildIndex(1)
	return t
}

// UserTableSharded is UserTable for a hash-partitioned store: the same
// T(key, val) contents, partitioned on the val column — the column
// every generated body pins to a constant — so each query routes to a
// single shard and concurrent requests spread across shard locks.
func UserTableSharded(sh *db.ShardedInstance, rows int) *db.ShardedRelation {
	t := sh.CreateRelation("T", 1, "key", "val")
	fillUserTable(t.Insert, rows)
	t.BuildIndex(1)
	return t
}

// fillUserTable writes the canonical T contents through either table
// handle, so plain and sharded stores hold identical tuples.
func fillUserTable(insert func(vals ...eq.Value), rows int) {
	for i := 0; i < rows; i++ {
		insert(eq.Value("t"+strconv.Itoa(i)), eq.Value("c"+strconv.Itoa(i)))
	}
}

// NewStore builds the serving-path store in one place: the user table
// on a plain instance for shards <= 1, or hash-partitioned across the
// given shard count, with the simulated per-query latency applied
// either way. cmd/coordserve, the benchmark (bench/coordmark) and the
// server tests share it, so a plain and a sharded store of the same
// size hold the same tuples.
func NewStore(shards, rows int, latency time.Duration) db.Store {
	if shards > 1 {
		sh := db.NewShardedInstance(shards)
		sh.SetSimulatedLatency(latency)
		UserTableSharded(sh, rows)
		return sh
	}
	inst := db.NewInstance()
	inst.SimulatedLatency = latency
	UserTable(inst, rows)
	return inst
}

// Placement is the cluster work-placement contract for the canonical
// workload: T partitioned on its val column — the column
// UserTableSharded hashes and every generated body pins — so a
// coordserve cluster routes each single-value request to one owner.
func Placement() map[string]int { return map[string]int{"T": 1} }

// user returns the constant naming query i's user.
func user(i int) eq.Value { return eq.Value("U" + strconv.Itoa(i)) }

// bodyFor builds the simple satisfiable body T(x, c_{i mod rows}).
func bodyFor(i, rows int) []eq.Atom {
	c := eq.C(eq.Value("c" + strconv.Itoa(i%rows)))
	return []eq.Atom{eq.NewAtom("T", eq.V("x"), c)}
}

// ListQueries builds the Figure 4 workload: n queries in a list where
// query i asks to coordinate with query i+1 and the last query has no
// coordination partner. The set is safe but not unique, and there is a
// different coordinating set suffix for every position — the worst case
// for the paper's bottom-up walk of the whole family (AllCandidates; one
// database query per query). SCCCoordinate, which searches the largest
// set first, grounds the whole list with one.
func ListQueries(n, tableRows int) []eq.Query {
	return listQueriesWith(n, func(i int) []eq.Atom { return bodyFor(i, tableRows) })
}

// JoinedDeadEnd gives a list's last query a body no table row
// satisfies, in place, and returns the list: every set the list could
// coordinate holds it, so none grounds. Its empty atom, T(?y, 'none'),
// shares ?y with T(?x, ?y), so a failed search cannot name it
// (db.Binding.Empty): the family walk learns that with one query, the
// last one's own, while SCCCoordinate asks one per query.
func JoinedDeadEnd(qs []eq.Query) []eq.Query {
	qs[len(qs)-1].Body = []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.V("y")), eq.NewAtom("T", eq.V("y"), eq.C("none"))}
	return qs
}

// ListQueriesAt builds the Figure 4 list structure with every body
// pinned to the single table value c_at: the whole request grounds
// through one value, so on a store sharded on T's val column the
// request is single-shard routable, and requests with different at
// values fan out across shards.
func ListQueriesAt(n, at int) []eq.Query {
	c := eq.C(eq.Value("c" + strconv.Itoa(at)))
	return listQueriesWith(n, func(int) []eq.Atom {
		return []eq.Atom{eq.NewAtom("T", eq.V("x"), c)}
	})
}

// listQueriesWith is the shared list-structure builder: query i asks
// to coordinate with query i+1, the last query has no partner, and
// bodyAt supplies each query's body.
func listQueriesWith(n int, bodyAt func(i int) []eq.Atom) []eq.Query {
	qs := make([]eq.Query, n)
	for i := 0; i < n; i++ {
		q := eq.Query{
			ID:   "u" + strconv.Itoa(i),
			Head: []eq.Atom{eq.NewAtom("R", eq.C(user(i)), eq.V("x"))},
			Body: bodyAt(i),
		}
		if i+1 < n {
			q.Post = []eq.Atom{eq.NewAtom("R", eq.C(user(i+1)), eq.V("y"))}
		}
		qs[i] = q
	}
	return qs
}

// GraphQueries builds a query set whose coordination structure follows
// the given directed graph (the Figure 5/6 workload uses a
// Barabási–Albert graph): query i's postconditions name the users of its
// successors. One head per user keeps the set safe; bodies are simple
// and always satisfiable.
func GraphQueries(g *graph.Digraph, tableRows int) []eq.Query {
	n := g.N()
	qs := make([]eq.Query, n)
	for i := 0; i < n; i++ {
		q := eq.Query{
			ID:   "u" + strconv.Itoa(i),
			Head: []eq.Atom{eq.NewAtom("R", eq.C(user(i)), eq.V("x"))},
			Body: bodyFor(i, tableRows),
		}
		for k, j := range g.Succ(i) {
			q.Post = append(q.Post, eq.NewAtom("R", eq.C(user(j)), eq.V("y"+strconv.Itoa(k))))
		}
		qs[i] = q
	}
	return qs
}

// ScaleFreeQueries builds the Figure 5 workload directly: a
// Barabási–Albert network of n queries with attachment parameter m.
func ScaleFreeQueries(n, m, tableRows int, rng *rand.Rand) []eq.Query {
	return GraphQueries(netgen.BarabasiAlbert(n, m, rng), tableRows)
}

// FlightSchema is the §6.2 application schema: users coordinate on a
// flight's destination and day; source and airline are personal
// preferences; Friends(user, friend) holds the social relation.
func FlightSchema() consistent.Schema {
	return consistent.Schema{
		Table:     "Flights",
		KeyCol:    0,
		CoordCols: []int{1, 2}, // destination, day
		OwnCols:   []int{3, 4}, // source, airline
		Friends:   "Friends",
	}
}

// FlightsTable populates Flights(fid, dest, day, src, airline) with rows
// tuples spread over distinctPairs distinct (dest, day) combinations.
// Figure 7 uses distinctPairs == rows (every flight unique, so the
// number of coordination options equals the table size); Figure 8 fixes
// 100 distinct pairs.
func FlightsTable(inst *db.Instance, rows, distinctPairs int) *db.Relation {
	f := inst.CreateRelation("Flights", "fid", "dest", "day", "src", "airline")
	for i := 0; i < rows; i++ {
		pair := i % distinctPairs
		f.Insert(
			eq.Value("fl"+strconv.Itoa(i)),
			eq.Value("dest"+strconv.Itoa(pair)),
			eq.Value("day"+strconv.Itoa(pair)),
			eq.Value("src"+strconv.Itoa(i%7)),
			eq.Value("air"+strconv.Itoa(i%5)),
		)
	}
	f.BuildIndex(1)
	return f
}

// CompleteFriends encodes a complete friendship graph over the n users
// named user(0..n-1) into Friends(user, friend), as in Figures 7 and 8.
func CompleteFriends(inst *db.Instance, n int) *db.Relation {
	f := inst.CreateRelation("Friends", "user", "friend")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				f.Insert(user(i), user(j))
			}
		}
	}
	f.BuildIndex(0)
	return f
}

// GraphFriends encodes an arbitrary friendship graph into
// Friends(user, friend).
func GraphFriends(inst *db.Instance, g *graph.Digraph) *db.Relation {
	f := inst.CreateRelation("Friends", "user", "friend")
	for i := 0; i < g.N(); i++ {
		for _, j := range g.Succ(i) {
			f.Insert(user(i), user(j))
		}
	}
	f.BuildIndex(0)
	return f
}

// FlightQueries builds the Figure 7/8 query load: n users, each wanting
// to fly with any one friend, with no constraints on any attribute — the
// paper's declared worst case, where every tuple in the database
// satisfies every query and no pruning ever removes anything.
func FlightQueries(n int) []consistent.Query {
	qs := make([]consistent.Query, n)
	for i := range qs {
		qs[i] = consistent.Query{
			User:     user(i),
			Coord:    []consistent.Pref{consistent.DontCare, consistent.DontCare},
			Own:      []consistent.Pref{consistent.DontCare, consistent.DontCare},
			Partners: []consistent.Partner{consistent.Friend},
		}
	}
	return qs
}

// RandomFlightQueries builds a randomized consistent workload for
// testing: each user constrains each attribute with probability p and
// coordinates either with a random named user or with any friend.
func RandomFlightQueries(n, distinctPairs int, p float64, rng *rand.Rand) []consistent.Query {
	pref := func(stem string, count int) consistent.Pref {
		if rng.Float64() < p {
			return consistent.Is(eq.Value(stem + strconv.Itoa(rng.Intn(count))))
		}
		return consistent.DontCare
	}
	qs := make([]consistent.Query, n)
	for i := range qs {
		var partner consistent.Partner
		if rng.Float64() < 0.5 {
			partner = consistent.Friend
		} else {
			j := rng.Intn(n)
			for j == i {
				j = rng.Intn(n)
			}
			partner = consistent.With(user(j))
		}
		qs[i] = consistent.Query{
			User:     user(i),
			Coord:    []consistent.Pref{pref("dest", distinctPairs), pref("day", distinctPairs)},
			Own:      []consistent.Pref{pref("src", 7), pref("air", 5)},
			Partners: []consistent.Partner{partner},
		}
	}
	return qs
}

// RandomSafeQueries builds a randomized safe entangled query set for
// testing the SCC algorithm against the brute-force oracle: the
// coordination structure is a random graph, and each body targets a
// value that exists with probability pSat (a missing value fails its
// component's search, and every component that reaches it).
func RandomSafeQueries(n, tableRows int, edgeP, pSat float64, rng *rand.Rand) []eq.Query {
	g := netgen.ErdosRenyi(n, edgeP, rng)
	qs := GraphQueries(g, tableRows)
	for i := range qs {
		if rng.Float64() >= pSat {
			// Point the body at a value not present in T.
			qs[i].Body = []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C(eq.Value("missing"+strconv.Itoa(i))))}
		}
	}
	return qs
}

// User exposes the user-naming convention to other packages (examples,
// experiment drivers).
func User(i int) eq.Value { return user(i) }
