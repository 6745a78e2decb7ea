package coord

import "errors"

// Stable machine-readable codes for the package's sentinel errors. The
// HTTP wire format (internal/api) transports errors as {code, message}
// pairs, and clients reconstruct the sentinel from the code, so
// errors.Is works identically on both sides of the network. Codes are
// part of the public wire contract: renaming one is a breaking change.
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

// codes pairs each sentinel with its code, in classification order:
// ErrUnsafeArrival before ErrUnsafe, so a wrapped arrival rejection
// keeps its more specific code.
var codes = []struct {
	code string
	err  error
}{
	{CodeUnsafeArrival, ErrUnsafeArrival},
	{CodeTooManyQueries, ErrTooManyQueries},
	{CodeNoQuery, ErrNoQuery},
	{CodeNotUnique, ErrNotUnique},
	{CodeUnsafe, ErrUnsafe},
}

// Code returns the stable code of the sentinel error err wraps, or ""
// when err is nil or wraps no coord sentinel.
func Code(err error) string {
	for _, c := range codes {
		if errors.Is(err, c.err) {
			return c.code
		}
	}
	return ""
}

// FromCode returns the sentinel error a code names, or nil for a code
// this package does not define. It is the decoding half of Code: for
// every coord sentinel e, errors.Is(FromCode(Code(e)), e) holds.
func FromCode(code string) error {
	for _, c := range codes {
		if c.code == code {
			return c.err
		}
	}
	return nil
}
