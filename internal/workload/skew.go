package workload

import (
	"math"
	"math/rand"
	"strconv"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// UserTableMutations is the mutation-stream form of UserTable /
// UserTableSharded: the same canonical T(key, val) contents as a
// replayable db.Mutation sequence (create, rows, index on val, with
// val as the hash column). Applying it to a plain or sharded store —
// or a durable persist backend over either — builds the exact store
// NewStore builds, which is how coordserve populates a fresh data
// directory.
func UserTableMutations(rows int) []db.Mutation {
	ms := make([]db.Mutation, 0, rows+2)
	ms = append(ms, db.MCreate("T", 1, "key", "val"))
	for i := 0; i < rows; i++ {
		ms = append(ms, db.MInsert("T", eq.Value("t"+strconv.Itoa(i)), eq.Value("c"+strconv.Itoa(i))))
	}
	return append(ms, db.MIndex("T", 1))
}

// SkewOptions configures the deterministic skewed-data generator: the
// ROADMAP's missing test fuel for durability property tests and
// benchmarks. Real coordination workloads are not uniform — a few
// relations hold most tuples and a few values receive most rows — and
// uniform fixtures hide bugs (and flatter benchmarks) that skew
// exposes: snapshot streams dominated by one relation, hash shards
// with hot parts, WAL segments rotating mid-relation.
type SkewOptions struct {
	// Relations is the number of generated relations S0..S{n-1}.
	// Zero means 4.
	Relations int
	// MaxRows is the largest relation's row count; relation i holds
	// ~MaxRows/(i+1)^Skew rows (Zipf-ranked sizes, always >= 1).
	// Zero means 1000.
	MaxRows int
	// Skew is the Zipf exponent for both the size ranking and the
	// hot-key column. Zero means 1.2; must be > 1 for the hot-key
	// distribution.
	Skew float64
	// HotKeys is the number of distinct values in each relation's val
	// column; a Zipf draw concentrates most rows on the first few.
	// Zero means 32.
	HotKeys int
	// Seed fixes the draw: equal options generate byte-identical
	// mutation streams.
	Seed int64
}

func (o SkewOptions) withDefaults() SkewOptions {
	if o.Relations <= 0 {
		o.Relations = 4
	}
	if o.MaxRows <= 0 {
		o.MaxRows = 1000
	}
	if o.Skew <= 1 {
		o.Skew = 1.2
	}
	if o.HotKeys <= 0 {
		o.HotKeys = 32
	}
	return o
}

// ZipfRowCounts returns the deterministic Zipf-ranked size of each of
// n relations: counts[i] = max(1, maxRows/(i+1)^s).
func ZipfRowCounts(n, maxRows int, s float64) []int {
	counts := make([]int, n)
	for i := range counts {
		c := int(float64(maxRows) / math.Pow(float64(i+1), s))
		if c < 1 {
			c = 1
		}
		counts[i] = c
	}
	return counts
}

// SkewedMutations generates a replayable mutation stream building
// Relations relations S0..S{n-1} with Zipf-ranked sizes; each row's
// val column (the hash column, indexed) is a Zipf draw over HotKeys
// distinct values, so a handful of hot values carry most rows. The
// stream is a pure function of the options — the property tests replay
// it into durable and in-memory stores and compare answers exactly.
func SkewedMutations(o SkewOptions) []db.Mutation {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	zipf := rand.NewZipf(rng, o.Skew, 1, uint64(o.HotKeys-1))
	var ms []db.Mutation
	for i, rows := range ZipfRowCounts(o.Relations, o.MaxRows, o.Skew) {
		name := "S" + strconv.Itoa(i)
		ms = append(ms, db.MCreate(name, 1, "key", "val"))
		for j := 0; j < rows; j++ {
			hot := eq.Value("h" + strconv.FormatUint(zipf.Uint64(), 10))
			ms = append(ms, db.MInsert(name, eq.Value(name+"k"+strconv.Itoa(j)), hot))
		}
		ms = append(ms, db.MIndex(name, 1))
	}
	return ms
}
