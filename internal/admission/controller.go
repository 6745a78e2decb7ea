package admission

import (
	"sort"
	"sync"
	"time"
)

// tenantState is one tenant's live accounting: both token buckets, the
// in-flight gauge, and the counters the status endpoint reports. One
// mutex per tenant keeps unrelated tenants off each other's cache
// lines and lets the admit fast path stay a few dozen nanoseconds.
type tenantState struct {
	name   Tenant // the tenant accounted here (see Resolve)
	mu     sync.Mutex
	policy Policy

	tokens    float64 // request-rate bucket balance
	tokensAt  int64   // last refill, ns on the controller clock
	balance   float64 // DBQueries budget balance (may run negative: post-paid)
	balanceAt int64
	inFlight  int

	admitted          int64
	throttledRate     int64
	throttledInFlight int64
	throttledBudget   int64
	dbSpent           int64
}

// Controller makes per-tenant admission decisions. All methods are
// safe for concurrent use. A nil *Controller is the documented "off"
// state — callers gate on nil before calling, so an unconfigured
// server carries zero admission overhead.
type Controller struct {
	cfg Config

	mu      sync.RWMutex
	tenants map[Tenant]*tenantState

	// clock returns nanoseconds on a monotonic scale; tests override.
	clock func() int64
}

// NewController builds a controller over a validated Config. States
// for explicitly configured tenants exist immediately so /v1/tenants
// shows every named tenant before its first request.
func NewController(cfg Config) *Controller {
	base := time.Now()
	c := &Controller{
		cfg:     cfg,
		tenants: make(map[Tenant]*tenantState, len(cfg.Tenants)+1),
		clock:   func() int64 { return int64(time.Since(base)) },
	}
	for name := range cfg.Tenants {
		c.state(Tenant(name))
	}
	return c
}

// policyFor resolves the effective policy for a (normalized) tenant:
// its own entry when named in the config, the default otherwise.
func (c *Controller) policyFor(t Tenant) Policy {
	if p, ok := c.cfg.Tenants[string(t)]; ok {
		return p.withDefaults()
	}
	return c.cfg.Default.withDefaults()
}

// Weight reports the tenant's deficit-round-robin dispatch weight.
func (c *Controller) Weight(t Tenant) int {
	return c.policyFor(normalize(t)).Weight
}

// Bounds on what a client-chosen tenant name can make the server keep.
const (
	// MaxUnconfigured is how many tenants the policy file does not name
	// get accounting state of their own; names first seen after that are
	// accounted as Default.
	MaxUnconfigured = 1024
	// MaxTenantName is the longest tenant name the server's edges accept,
	// in bytes.
	MaxTenantName = 256
)

// Resolve returns the tenant t is accounted as: itself while the
// controller keeps state for it, Default for a name first seen after
// MaxUnconfigured others. Everything keyed by tenant keys on the
// resolved name, and so holds at most configured + MaxUnconfigured + 1
// entries whatever names clients invent.
func (c *Controller) Resolve(t Tenant) Tenant { return c.state(t).name }

// state returns the tenant's accounting state, creating it with full
// buckets on first sight.
func (c *Controller) state(t Tenant) *tenantState {
	t = normalize(t)
	c.mu.RLock()
	st := c.tenants[t]
	c.mu.RUnlock()
	if st != nil {
		return st
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Configured tenants exist from NewController on, so a name that gets
	// here is one a client chose.
	if st = c.tenants[t]; st == nil && len(c.tenants) >= len(c.cfg.Tenants)+MaxUnconfigured {
		t = Default
		st = c.tenants[t]
	}
	if st != nil {
		return st
	}
	p := c.policyFor(t)
	now := c.clock()
	st = &tenantState{
		name:      t,
		policy:    p,
		tokens:    float64(p.Burst),
		tokensAt:  now,
		balance:   float64(p.DBQueriesBurst),
		balanceAt: now,
	}
	c.tenants[t] = st
	return st
}

// refill tops a bucket up from its last-refill timestamp. Called with
// the tenant mutex held.
func refill(balance *float64, at *int64, now int64, rate, cap float64) {
	if now <= *at {
		return
	}
	*balance += float64(now-*at) / float64(time.Second) * rate
	if *balance > cap {
		*balance = cap
	}
	*at = now
}

// Decide admits or rejects one unit of tenant work. Admission takes a
// rate token and an in-flight slot and must be paired with Done when
// the work finishes. Rejections are typed *ThrottleError (wrapping
// ErrThrottled) and change no state beyond a throttle counter. The
// fast path — a tenant with no rate or budget policy — never reads the
// clock and performs zero allocations.
func (c *Controller) Decide(t Tenant) error {
	st := c.state(t)
	st.mu.Lock()
	p := &st.policy
	if p.Rate > 0 {
		refill(&st.tokens, &st.tokensAt, c.clock(), p.Rate, float64(p.Burst))
		if st.tokens < 1 {
			st.throttledRate++
			retry := time.Duration((1 - st.tokens) / p.Rate * float64(time.Second))
			st.mu.Unlock()
			return &ThrottleError{Tenant: st.name, Reason: ReasonRate, RetryAfter: retry}
		}
	}
	if p.MaxInFlight > 0 && st.inFlight >= p.MaxInFlight {
		st.throttledInFlight++
		st.mu.Unlock()
		return &ThrottleError{Tenant: st.name, Reason: ReasonInFlight}
	}
	if p.DBQueriesPerSec > 0 {
		refill(&st.balance, &st.balanceAt, c.clock(), p.DBQueriesPerSec, float64(p.DBQueriesBurst))
		if st.balance <= 0 {
			st.throttledBudget++
			retry := time.Duration((1 - st.balance) / p.DBQueriesPerSec * float64(time.Second))
			st.mu.Unlock()
			return &ThrottleError{Tenant: st.name, Reason: ReasonBudget, RetryAfter: retry}
		}
	}
	if p.Rate > 0 {
		st.tokens--
	}
	st.inFlight++
	st.admitted++
	st.mu.Unlock()
	return nil
}

// Done releases the in-flight slot taken by a successful Decide and
// charges the exact database queries the admitted work spent. The
// budget is post-paid: the balance may run negative, which future
// Decides observe as exhaustion until the refill catches up.
func (c *Controller) Done(t Tenant, dbQueries int64) {
	st := c.state(t)
	st.mu.Lock()
	if st.inFlight > 0 {
		st.inFlight--
	}
	st.charge(dbQueries)
	st.mu.Unlock()
}

// ChargeDB records database spend for ungated work (session leaves run
// unconditionally — shedding load must never block releasing it — but
// their cost still counts against the tenant's rolling budget).
func (c *Controller) ChargeDB(t Tenant, dbQueries int64) {
	if dbQueries == 0 {
		return
	}
	st := c.state(t)
	st.mu.Lock()
	st.charge(dbQueries)
	st.mu.Unlock()
}

// charge is the shared spend path; called with the tenant mutex held.
func (st *tenantState) charge(dbQueries int64) {
	if dbQueries <= 0 {
		return
	}
	st.dbSpent += dbQueries
	if st.policy.DBQueriesPerSec > 0 {
		st.balance -= float64(dbQueries)
	}
}

// TenantSnapshot is one tenant's point-in-time accounting for status
// and metrics endpoints.
type TenantSnapshot struct {
	Tenant            Tenant
	Policy            Policy
	InFlight          int
	Admitted          int64
	ThrottledRate     int64
	ThrottledInFlight int64
	ThrottledBudget   int64
	DBQueriesSpent    int64
	// DBBalance is the budget balance as of the last accounting touch
	// (no refill is applied at snapshot time).
	DBBalance float64
}

// Throttled is the tenant's total rejections across all dimensions.
func (s TenantSnapshot) Throttled() int64 {
	return s.ThrottledRate + s.ThrottledInFlight + s.ThrottledBudget
}

// Snapshot returns every known tenant's state, sorted by name.
func (c *Controller) Snapshot() []TenantSnapshot {
	c.mu.RLock()
	states := make(map[Tenant]*tenantState, len(c.tenants))
	for t, st := range c.tenants {
		states[t] = st
	}
	c.mu.RUnlock()
	out := make([]TenantSnapshot, 0, len(states))
	for t, st := range states {
		st.mu.Lock()
		out = append(out, TenantSnapshot{
			Tenant:            t,
			Policy:            st.policy,
			InFlight:          st.inFlight,
			Admitted:          st.admitted,
			ThrottledRate:     st.throttledRate,
			ThrottledInFlight: st.throttledInFlight,
			ThrottledBudget:   st.throttledBudget,
			DBQueriesSpent:    st.dbSpent,
			DBBalance:         st.balance,
		})
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
