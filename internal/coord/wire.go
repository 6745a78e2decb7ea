package coord

// Stable machine-readable codes for the package's sentinel errors. The
// wire format transports errors as {code, message} pairs, and the one
// taxonomy that maps each sentinel to its code and back is
// internal/api's, so errors.Is works identically on both sides of the
// network. Codes are part of the public wire contract: renaming one is
// a breaking change.
const (
	// CodeUnsafe names ErrUnsafe: a batch algorithm requiring safety
	// was given an unsafe set.
	CodeUnsafe = "unsafe_set"
	// CodeNotUnique names ErrNotUnique: the Gupta baseline was given a
	// non-unique set.
	CodeNotUnique = "not_unique"
	// CodeUnsafeArrival names ErrUnsafeArrival: admitting the arriving
	// query would make a streaming session's set unsafe.
	CodeUnsafeArrival = "unsafe_arrival"
	// CodeNoQuery names ErrNoQuery: a departure targeted a slot with no
	// live query.
	CodeNoQuery = "no_query"
	// CodeTooManyQueries names ErrTooManyQueries: the brute-force
	// oracles refuse sets larger than MaxBruteQueries.
	CodeTooManyQueries = "too_many_queries"
)
