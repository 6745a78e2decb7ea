package admission

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock swaps the controller onto a hand-cranked clock so the
// token-bucket math is tested exactly, not statistically.
func fakeClock(c *Controller) *atomic.Int64 {
	var now atomic.Int64
	c.clock = now.Load
	c.mu.Lock()
	for _, st := range c.tenants {
		st.tokensAt, st.balanceAt = 0, 0
	}
	c.mu.Unlock()
	return &now
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := FromContext(ctx); got != "" {
		t.Fatalf("empty context carries tenant %q", got)
	}
	ctx = WithTenant(ctx, "acme")
	if got := FromContext(ctx); got != "acme" {
		t.Fatalf("FromContext = %q, want acme", got)
	}
}

func TestUnlimitedPolicyAdmitsAndMeters(t *testing.T) {
	c := NewController(Config{})
	for i := 0; i < 100; i++ {
		if err := c.Decide("acme"); err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		c.Done("acme", 3)
	}
	snaps := c.Snapshot()
	if len(snaps) != 1 || snaps[0].Tenant != "acme" {
		t.Fatalf("snapshot %+v", snaps)
	}
	s := snaps[0]
	if s.Admitted != 100 || s.Throttled() != 0 || s.InFlight != 0 || s.DBQueriesSpent != 300 {
		t.Fatalf("snapshot %+v", s)
	}
}

func TestRateLimitAndRetryAfter(t *testing.T) {
	c := NewController(Config{Tenants: map[string]Policy{
		"hot": {Rate: 10, Burst: 2},
	}})
	now := fakeClock(c)
	// The bucket starts full: Burst admissions pass, then rejection.
	for i := 0; i < 2; i++ {
		if err := c.Decide("hot"); err != nil {
			t.Fatalf("burst decide %d: %v", i, err)
		}
	}
	err := c.Decide("hot")
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("over-burst decide: %v, want ErrThrottled", err)
	}
	var te *ThrottleError
	if !errors.As(err, &te) || te.Reason != ReasonRate || te.Tenant != "hot" {
		t.Fatalf("throttle error %+v", err)
	}
	// At 10 req/s one token is 100ms away from an empty bucket.
	if te.RetryAfter <= 0 || te.RetryAfter > 150*time.Millisecond {
		t.Fatalf("retry-after %v, want ~100ms", te.RetryAfter)
	}
	// Advancing the clock by the hint (plus a float-rounding margin)
	// makes the next decide pass.
	now.Add(int64(te.RetryAfter) + int64(time.Millisecond))
	if err := c.Decide("hot"); err != nil {
		t.Fatalf("decide after refill: %v", err)
	}
	// The bucket never overfills past Burst.
	now.Add(int64(time.Hour))
	for i := 0; i < 2; i++ {
		if err := c.Decide("hot"); err != nil {
			t.Fatalf("post-idle decide %d: %v", i, err)
		}
	}
	if err := c.Decide("hot"); !errors.Is(err, ErrThrottled) {
		t.Fatalf("burst cap after idle: %v, want ErrThrottled", err)
	}
}

func TestInFlightCap(t *testing.T) {
	c := NewController(Config{Tenants: map[string]Policy{
		"hot": {MaxInFlight: 2},
	}})
	if err := c.Decide("hot"); err != nil {
		t.Fatal(err)
	}
	if err := c.Decide("hot"); err != nil {
		t.Fatal(err)
	}
	err := c.Decide("hot")
	var te *ThrottleError
	if !errors.As(err, &te) || te.Reason != ReasonInFlight {
		t.Fatalf("over-cap decide: %v, want in_flight throttle", err)
	}
	if te.RetryAfter != 0 {
		t.Fatalf("in-flight throttle has retry-after %v, want none", te.RetryAfter)
	}
	c.Done("hot", 0)
	if err := c.Decide("hot"); err != nil {
		t.Fatalf("decide after done: %v", err)
	}
}

func TestDBBudgetPostPaid(t *testing.T) {
	c := NewController(Config{Tenants: map[string]Policy{
		"hot": {DBQueriesPerSec: 100, DBQueriesBurst: 50},
	}})
	now := fakeClock(c)
	// Budget starts at the burst cap; a big post-paid charge drives it
	// negative and the next decide is rejected with a refill hint.
	if err := c.Decide("hot"); err != nil {
		t.Fatal(err)
	}
	c.Done("hot", 200) // 150 over balance
	err := c.Decide("hot")
	var te *ThrottleError
	if !errors.As(err, &te) || te.Reason != ReasonBudget {
		t.Fatalf("over-budget decide: %v, want db_budget throttle", err)
	}
	// (1 - (-150)) / 100 per sec ≈ 1.51s to get back above zero.
	if te.RetryAfter < time.Second || te.RetryAfter > 2*time.Second {
		t.Fatalf("retry-after %v, want ~1.51s", te.RetryAfter)
	}
	now.Add(int64(te.RetryAfter))
	if err := c.Decide("hot"); err != nil {
		t.Fatalf("decide after budget refill: %v", err)
	}
	// ChargeDB (the ungated path) also drains the same budget.
	c.ChargeDB("hot", 1000)
	if err := c.Decide("hot"); !errors.Is(err, ErrThrottled) {
		t.Fatalf("decide after ChargeDB drain: %v, want ErrThrottled", err)
	}
	s := c.Snapshot()[0]
	if s.DBQueriesSpent != 1200 {
		t.Fatalf("spent %d, want 1200", s.DBQueriesSpent)
	}
}

// A rate past what an int holds is as good as unlimited: its derived
// burst saturates instead of overflowing, which made the query budget
// start negative (every decide a db_budget throttle) and the request
// bucket one token deep.
func TestHugeRatesSaturateTheirBursts(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{"default": {"rate": 1e19, "db_queries_per_sec": 1e19}}`))
	if err != nil {
		t.Fatal(err)
	}
	if p := cfg.Default.withDefaults(); p.Burst != math.MaxInt || p.DBQueriesBurst != math.MaxInt64 {
		t.Fatalf("bursts %d and %d, want math.MaxInt and math.MaxInt64", p.Burst, p.DBQueriesBurst)
	}
	c := NewController(cfg)
	fakeClock(c)
	for i := 0; i < 3; i++ {
		if err := c.Decide("acme"); err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		c.Done("acme", 1000)
	}
}

func TestDefaultTenantAndPolicyResolution(t *testing.T) {
	c := NewController(Config{
		Default: Policy{MaxInFlight: 1, Weight: 2},
		Tenants: map[string]Policy{"vip": {Weight: 8}},
	})
	// "" and Default share one state under the default policy.
	if err := c.Decide(""); err != nil {
		t.Fatal(err)
	}
	if err := c.Decide(Default); !errors.Is(err, ErrThrottled) {
		t.Fatalf("second default decide: %v, want ErrThrottled", err)
	}
	// vip has its own policy (no merging with default).
	if err := c.Decide("vip"); err != nil {
		t.Fatal(err)
	}
	if err := c.Decide("vip"); err != nil {
		t.Fatalf("vip is uncapped: %v", err)
	}
	if w := c.Weight("vip"); w != 8 {
		t.Fatalf("vip weight %d, want 8", w)
	}
	if w := c.Weight("unknown"); w != 2 {
		t.Fatalf("default weight %d, want 2", w)
	}
	if w := c.Weight(""); w != 2 {
		t.Fatalf("empty-tenant weight %d, want 2", w)
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{
		"default": {"rate": 100},
		"tenants": {"hot": {"rate": 5, "burst": 10, "max_in_flight": 2, "db_queries_per_sec": 50, "weight": 3}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Default.Rate != 100 || cfg.Tenants["hot"].Weight != 3 {
		t.Fatalf("parsed %+v", cfg)
	}
	// Derived defaults: burst from rate, db burst from db rate.
	p := cfg.Tenants["hot"].withDefaults()
	if p.Burst != 10 || p.DBQueriesBurst != 50 || p.Weight != 3 {
		t.Fatalf("defaults %+v", p)
	}
	d := cfg.Default.withDefaults()
	if d.Burst != 100 || d.Weight != 1 {
		t.Fatalf("default defaults %+v", d)
	}
	if _, err := ParseConfig([]byte(`{"default": {"ratee": 1}}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseConfig([]byte(`{"default": {"rate": -1}}`)); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := ParseConfig([]byte(`{"tenants": {"": {}}}`)); err == nil {
		t.Fatal("empty tenant name accepted")
	}
}

// TestPolicyFileRefusesTrailingData: a policy document is the whole
// file. A second document (even one validate would refuse), stray
// bytes or a stray closing brace after the first is an error, not
// silently dropped; trailing whitespace is fine. LoadConfig reads a
// valid file, and refuses a missing one and one with trailing data.
func TestPolicyFileRefusesTrailingData(t *testing.T) {
	for _, doc := range []string{
		`{"default":{}} {"tenants":{"a":{"rate":-5}}}`,
		`{"default":{}} garbage`,
		`{"default":{}}}`,
		`{"default":{}} []`,
		`{"default":{}} 1`,
	} {
		if cfg, err := ParseConfig([]byte(doc)); err == nil {
			t.Errorf("%q: accepted as %+v", doc, cfg)
		}
	}
	if _, err := ParseConfig([]byte("{\"default\":{\"rate\":1}} \n\t\n")); err != nil {
		t.Errorf("trailing whitespace refused: %v", err)
	}

	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cfg, err := LoadConfig(write("ok.json", `{"default":{"rate":7},"tenants":{"a":{"weight":2}}}`+"\n"))
	if err != nil || cfg.Default.Rate != 7 || cfg.Tenants["a"].Weight != 2 {
		t.Fatalf("valid file: %+v, %v", cfg, err)
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v, want fs.ErrNotExist", err)
	}
	if cfg, err := LoadConfig(write("trailing.json", `{"default":{}} {"tenants":{"a":{"rate":-5}}}`)); err == nil {
		t.Fatalf("trailing data: accepted as %+v", cfg)
	}
}

// TestControllerRace is the -race hammer over the policy store: many
// goroutines deciding, finishing, charging, and snapshotting a mix of
// shared and private tenants. Correctness assertion: in-flight drains
// to zero and admitted counts are conserved.
func TestControllerRace(t *testing.T) {
	c := NewController(Config{
		Default: Policy{Rate: 1e9, MaxInFlight: 1 << 30, DBQueriesPerSec: 1e9},
		Tenants: map[string]Policy{"shared": {Rate: 1e9, DBQueriesPerSec: 1e9}},
	})
	tenants := []Tenant{"shared", "shared", "a", "b", "c", ""}
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				ten := tenants[(g+i)%len(tenants)]
				if err := c.Decide(ten); err == nil {
					admitted.Add(1)
					c.Done(ten, int64(i%3))
				}
				if i%64 == 0 {
					c.ChargeDB(ten, 1)
					c.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, s := range c.Snapshot() {
		total += s.Admitted
		if s.InFlight != 0 {
			t.Fatalf("tenant %s left %d in flight", s.Tenant, s.InFlight)
		}
	}
	if total != admitted.Load() {
		t.Fatalf("admitted %d, counters say %d", admitted.Load(), total)
	}
}

// BenchmarkAdmissionDecide measures the admit fast path (no rate or
// budget policy: no clock read, target <100ns and 0 allocs).
func BenchmarkAdmissionDecide(b *testing.B) {
	c := NewController(Config{Tenants: map[string]Policy{
		"t": {MaxInFlight: 1 << 30},
	}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Decide("t"); err != nil {
			b.Fatal(err)
		}
		c.Done("t", 2)
	}
}

// BenchmarkAdmissionDecideMetered measures the full path: token-bucket
// refill plus budget refill (two clock reads).
func BenchmarkAdmissionDecideMetered(b *testing.B) {
	c := NewController(Config{Tenants: map[string]Policy{
		"t": {Rate: 1e12, DBQueriesPerSec: 1e12},
	}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Decide("t"); err != nil {
			b.Fatal(err)
		}
		c.Done("t", 2)
	}
}

// BenchmarkAdmissionThrottled measures the rejection path (error
// construction included).
func BenchmarkAdmissionThrottled(b *testing.B) {
	c := NewController(Config{Tenants: map[string]Policy{
		"t": {MaxInFlight: 1},
	}})
	if err := c.Decide("t"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Decide("t"); err == nil {
			b.Fatal("admitted past the cap")
		}
	}
}
