package admission

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// Tenant identifies the principal a request is accounted against.
// Requests that arrive without an identity run as the Default tenant.
type Tenant string

// Default is the tenant requests are accounted against when they carry
// no identity (no HTTP header, no binary tenant envelope).
const Default Tenant = "default"

// normalize maps the absent identity onto the default tenant so every
// accounting path keys on a non-empty name.
func normalize(t Tenant) Tenant {
	if t == "" {
		return Default
	}
	return t
}

type ctxKey struct{}

// WithTenant returns a context carrying the tenant identity. The server
// edge calls this once per request (HTTP header middleware, binary
// tenant envelope) and every downstream accounting decision reads it
// back with FromContext.
func WithTenant(ctx context.Context, t Tenant) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the tenant identity carried by ctx, or the empty
// Tenant when none was attached (the caller runs as Default).
func FromContext(ctx context.Context) Tenant {
	t, _ := ctx.Value(ctxKey{}).(Tenant)
	return t
}

// Policy is one tenant's admission budget. The zero value of any field
// means "unlimited" on that dimension, so the zero Policy admits
// everything and only meters.
type Policy struct {
	// Rate is the sustained request admission rate (requests/second)
	// of the tenant's token bucket; Burst is the bucket capacity.
	// Burst defaults to ceil(Rate), at most math.MaxInt, when unset.
	Rate  float64 `json:"rate,omitempty"`
	Burst int     `json:"burst,omitempty"`
	// MaxInFlight caps the tenant's concurrently admitted requests.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// DBQueriesPerSec is the rolling database-query budget, refilled
	// continuously and drained post-paid by the exact Result.DBQueries
	// metering of completed work. DBQueriesBurst is the balance cap;
	// it defaults to ceil(DBQueriesPerSec) (one second of budget), at
	// most math.MaxInt64.
	DBQueriesPerSec float64 `json:"db_queries_per_sec,omitempty"`
	DBQueriesBurst  int64   `json:"db_queries_burst,omitempty"`
	// Weight is the tenant's deficit-round-robin dispatch weight
	// (quantum per scheduling round). Defaults to 1.
	Weight int `json:"weight,omitempty"`
}

// withDefaults fills the derived fields so the controller and the
// scheduler never see a zero burst or weight.
func (p Policy) withDefaults() Policy {
	if p.Weight <= 0 {
		p.Weight = 1
	}
	if p.Rate > 0 && p.Burst <= 0 {
		p.Burst = int(ceilTo(p.Rate, math.MaxInt))
	}
	if p.DBQueriesPerSec > 0 && p.DBQueriesBurst <= 0 {
		p.DBQueriesBurst = ceilTo(p.DBQueriesPerSec, math.MaxInt64)
	}
	return p
}

// ceilTo returns ceil(x), at least 1 for x > 0, saturated at limit. It
// compares before converting: float64(math.MaxInt64) rounds up to 2^63,
// itself out of int64's range.
func ceilTo(x float64, limit int64) int64 {
	if c := math.Ceil(x); c < float64(limit) {
		return int64(c)
	}
	return limit
}

func (p Policy) validate(who string) error {
	if p.Rate < 0 || p.Burst < 0 || p.MaxInFlight < 0 ||
		p.DBQueriesPerSec < 0 || p.DBQueriesBurst < 0 || p.Weight < 0 {
		return fmt.Errorf("admission: %s: negative policy field", who)
	}
	return nil
}

// Config is the parsed shape of a `-tenants policy.json` file: a
// default policy applied to tenants not named explicitly, plus
// per-tenant overrides. A tenant named in Tenants uses exactly its own
// policy (no merging with Default).
type Config struct {
	Default Policy            `json:"default"`
	Tenants map[string]Policy `json:"tenants,omitempty"`
}

// ParseConfig decodes and validates a policy JSON document. Unknown
// fields, and anything but whitespace after the document, are rejected
// so a typo in a policy file fails loudly at boot instead of silently
// admitting everything.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("admission: parsing policy: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, errors.New("admission: parsing policy: data after the document")
	}
	if err := cfg.Default.validate("default"); err != nil {
		return Config{}, err
	}
	for name, p := range cfg.Tenants {
		if name == "" {
			return Config{}, errors.New("admission: empty tenant name in policy")
		}
		if err := p.validate("tenant " + name); err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}

// LoadConfig reads and parses a policy file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	return ParseConfig(data)
}

// ErrThrottled is the sentinel every admission rejection wraps; it maps
// to wire code "throttled" (HTTP 429) and survives both protocols, so
// clients can `errors.Is` against it across the network. Throttled
// work was rejected before any state changed: the error is fate-known
// and retryable.
var ErrThrottled = errors.New("admission: tenant over budget")

// Throttle reasons, for operators reading errors and metrics.
const (
	ReasonRate     = "rate"      // request token bucket empty
	ReasonInFlight = "in_flight" // concurrent-in-flight cap reached
	ReasonBudget   = "db_budget" // rolling DBQueries budget exhausted
)

// ThrottleError reports one admission rejection: which tenant, which
// budget dimension, and — when the bucket refill rate makes it
// computable — how long until capacity returns.
type ThrottleError struct {
	Tenant Tenant
	Reason string
	// RetryAfter is the server's estimate of when one admission token
	// will be available again; zero when unknowable (in-flight caps
	// clear when outstanding work finishes, not on a clock).
	RetryAfter time.Duration
}

func (e *ThrottleError) Error() string {
	return fmt.Sprintf("admission: tenant %q throttled (%s)", e.Tenant, e.Reason)
}

func (e *ThrottleError) Unwrap() error { return ErrThrottled }

// RetryAfterHint implements the hint interface the api package uses to
// carry retry-after across both protocols.
func (e *ThrottleError) RetryAfterHint() time.Duration { return e.RetryAfter }
