package coord

import (
	"fmt"

	"entangled/internal/db"
	"entangled/internal/eq"
)

// Tombstones returns, in O(1), the number of dead slots: queries that
// were admitted and have since departed (or failed mid-admission). They
// cost memory and index space, and an event's bookkeeping scans every
// slot handed out (it solves only dirty components), so a long-lived
// high-churn coordinator grows with its history until Compact is
// called; stream.Session compacts once this crosses its threshold.
func (inc *Incremental) Tombstones() int { return inc.g.n - inc.g.live }

// Compact renumbers the live queries into dense slots 0..len(live)-1,
// dropping every tombstone, so subsequent events cost O(live queries)
// instead of O(total slots ever). It returns the slot remapping (old
// slot -> new slot, -1 for dead slots) and the cost of re-establishing
// the coordination state.
//
// Renumbering changes every query's alpha-renaming prefix, so cached
// component outcomes (whose bindings and signatures are expressed in
// old-slot variables) cannot be carried over: the next reconcile
// re-solves every component, at batch grounding cost. Cached
// body-satisfiability probes ARE carried over — they depend only on the
// query body and the store — so compaction issues no pruning probes.
// Compaction is amortised: triggered once tombstones exceed a
// threshold, its one-off batch-shaped cost is spread over the departures
// that created the garbage, exactly like a hash-table resize.
//
// A compacted coordinator is observably identical to a fresh one built
// from the live queries in slot order: same team, same witness values,
// same trace (the stream-vs-batch property tests run under aggressive
// compaction to pin this).
func (inc *Incremental) Compact() ([]int, DeltaStats, error) {
	remap := inc.Positions()
	g := NewIncrementalGraph()
	newQueries := make([]eq.Query, 0, inc.g.live)
	newRenamed := make([]eq.Query, 0, inc.g.live)
	newSat := make([]bool, 0, inc.g.live)
	for old, slot := range remap {
		if slot < 0 {
			continue
		}
		q := inc.queries[old]
		if got := g.Add(q); got != slot {
			return nil, DeltaStats{}, fmt.Errorf("coord: compaction slot skew: got %d, want %d", got, slot)
		}
		newQueries = append(newQueries, q)
		newRenamed = append(newRenamed, q.Rename(varPrefix(slot)))
		newSat = append(newSat, inc.bodySat[old])
	}
	inc.g = g
	inc.queries = newQueries
	inc.renamed = newRenamed
	inc.bodySat = newSat
	// Outcome signatures and bindings are slot-addressed; a dense
	// renumbering invalidates all of them.
	inc.cache = map[string]*compOutcome{}
	// The scratch was sized by the old slot count; the next pass
	// regrows it for the dense one.
	inc.scr = scratch{}

	m := db.NewMeter(inc.store)
	d, err := inc.reconcile(m)
	d.Slot = -1
	inc.last = d
	return remap, d, err
}
