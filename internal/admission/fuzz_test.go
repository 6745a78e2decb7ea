package admission

import (
	"errors"
	"testing"
)

// FuzzParseConfig feeds ParseConfig arbitrary bytes. A document it
// accepts holds policies that validate — no negative field, no empty
// tenant name — and a controller built on it decides, settles and
// reports for the default tenant, an unnamed one and every named one
// without panicking: Decide admits or returns a throttle, and every
// admission is settled with Done.
func FuzzParseConfig(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"default":{"rate":5,"burst":2}}`,
		`{"default":{},"tenants":{"hot":{"rate":0.5,"max_in_flight":1,"db_queries_per_sec":10,"db_queries_burst":3,"weight":4}}}`,
		`{"default":{"rate":1e308,"db_queries_per_sec":1e-308}}`,
		`{"tenants":{"":{}}}`,
		`{"default":{"burst":-1}}`,
		`{"default":{"quota":1}}`,
		`{} {}`,
		`not json`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			return
		}
		if err := cfg.Default.validate("default"); err != nil {
			t.Fatalf("accepted %q: %v", data, err)
		}
		tenants := []Tenant{Default, "unnamed"}
		for name, p := range cfg.Tenants {
			if err := p.validate("tenant " + name); err != nil || name == "" {
				t.Fatalf("accepted %q: tenant %q, %v", data, name, err)
			}
			tenants = append(tenants, Tenant(name))
		}
		c := NewController(cfg)
		for _, ten := range tenants {
			for range 3 {
				if err := c.Decide(ten); err == nil {
					c.Done(ten, 2)
				} else if !errors.Is(err, ErrThrottled) {
					t.Fatalf("accepted %q: tenant %q: Decide returned %v, not a throttle", data, ten, err)
				}
			}
		}
		c.Snapshot()
	})
}
