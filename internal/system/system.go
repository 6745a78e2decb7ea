package system

import (
	"fmt"
	"sync"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/stream"
)

// Outcome reports what a Submit call achieved.
type Outcome struct {
	// Coordinated lists the queries answered by this submission (empty
	// when the new query is parked as pending).
	Coordinated []eq.Query
	// Values maps each coordinated query's ID to its variable
	// assignment.
	Values map[string]map[string]eq.Value
	// Pending is the number of queries still waiting after this call.
	Pending int
}

// Coordinator is the online coordination module. It is safe for
// concurrent use: the session locks single events, mu makes
// join-then-retire one step so no team is retired twice.
type Coordinator struct {
	mu sync.Mutex
	s  *stream.Session // the pending queries and all coordination state
}

// New creates a coordinator over the given database instance.
func New(inst *db.Instance) *Coordinator {
	return &Coordinator{s: stream.New(inst, stream.Options{})}
}

// Pending returns the queries currently waiting, in arrival order.
func (c *Coordinator) Pending() []eq.Query { return c.s.Queries() }

// PendingCount returns the number of queries currently waiting.
func (c *Coordinator) PendingCount() int { return c.s.Size() }

// Submit joins q to the session and, when the session then reports a
// coordinating set, answers and retires it; otherwise q stays pending.
// A duplicate ID and an arrival that would make the pending set unsafe
// (coord.ErrUnsafeArrival) are refused and not kept.
func (c *Coordinator) Submit(q eq.Query) (*Outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q.ID == "" {
		q.ID = fmt.Sprintf("anon-%d", c.s.Totals().Events)
	}
	if _, err := c.s.Join(q); err != nil {
		return nil, err
	}
	return c.retire()
}

// Flush re-reads the store, whose writes may have made pending queries
// answerable, and retires coordinating sets until none remains.
func (c *Coordinator) Flush() ([]*Outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.s.Refresh(); err != nil {
		return nil, err
	}
	var outs []*Outcome
	for {
		out, err := c.retire()
		if err != nil || len(out.Coordinated) == 0 {
			return outs, err
		}
		outs = append(outs, out)
	}
}

// retire answers the session's selected coordinating set, if any: it
// reads the witness, then departs every member. Caller holds mu.
func (c *Coordinator) retire() (*Outcome, error) {
	st, err := c.s.Status(false)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Values: map[string]map[string]eq.Value{}, Pending: len(st.Queries)}
	if st.Result == nil {
		return out, nil
	}
	for _, i := range st.Result.Set {
		q := st.Queries[i]
		if _, err := c.s.Leave(q.ID); err != nil {
			return nil, err
		}
		out.Coordinated = append(out.Coordinated, q)
		out.Values[q.ID] = st.Result.Values[i]
		out.Pending--
	}
	return out, nil
}

// Cancel withdraws a pending query by ID and reports whether it was
// found. The dropped error is either the unknown ID or a failed
// re-solve after the query left, which the next event redoes.
func (c *Coordinator) Cancel(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	up, _ := c.s.Leave(id)
	return up.Admitted
}
