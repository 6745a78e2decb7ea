package coord

// Tombstones returns, in O(1), the number of dead slots: queries that
// were admitted and have since departed (or failed mid-admission). They
// cost memory and index space, and an event's bookkeeping scans every
// slot handed out (it solves only dirty components), so a long-lived
// high-churn coordinator grows with its history until Compact is
// called; stream.Session compacts once this crosses its threshold.
func (inc *Incremental) Tombstones() int { return inc.g.n - inc.g.live }

// Compact renumbers the live queries into dense slots 0..Len()-1,
// dropping every tombstone, so subsequent events cost O(live queries)
// instead of O(slots ever handed out). It returns the slot remapping
// (old slot -> new slot, -1 for dead slots).
//
// A renumbering says nothing new about the set, and costs nothing: no
// database query, no unification, no pass. Queries are named by serial,
// so every cached outcome, its binding and its key stay exact; what
// moves is the slots written down beside them — in the graph, the
// by-slot arrays, the cached sets (which the candidates alias) and the
// last pass's events — and the remap is monotone, so every order that
// was ascending in slots still is. Result still reports the cost of the
// event before: there was no event.
//
// A compacted coordinator is observably identical to a fresh one built
// from the live queries in slot order: same team, same witness values,
// same trace (the stream-vs-batch property tests run under aggressive
// compaction to pin this).
func (inc *Incremental) Compact() []int {
	remap := inc.Positions()
	inc.g.compact(remap)
	for old, slot := range remap {
		if slot >= 0 {
			inc.queries[slot], inc.vars[slot] = inc.queries[old], inc.vars[old]
			inc.serials[slot] = inc.serials[old]
		}
	}
	live := inc.g.live
	clear(inc.queries[live:]) // let go of the departed queries
	clear(inc.vars[live:])
	inc.queries, inc.vars = fit(inc.queries[:live]), fit(inc.vars[:live])
	inc.serials = fit(inc.serials[:live])

	// An outcome naming a departed slot is one a failed pass left unswept:
	// its key spells a dead serial, nothing can hit it again and no event
	// or candidate points at it, so it goes. The rest are renumbered
	// where they lie.
	for sig, out := range inc.cache {
		if !remapSlots(out.order, remap) {
			inc.evict(sig, out)
		} else if out.dead >= 0 {
			out.dead = int32(remap[out.dead])
		}
	}
	for _, e := range inc.events {
		remapSlots(e.members, remap)
	}
	for i := range inc.pruned {
		inc.pruned[i].Query = remap[inc.pruned[i].Query]
	}
	if slack(cap(inc.scr.alive), live) {
		inc.scr = scratch{} // the events keep their member lists
	}
	return remap
}

// remapSlots rewrites slots through remap in place and reports whether
// every one of them is still live.
func remapSlots(slots, remap []int) bool {
	live := true
	for i, slot := range slots {
		slots[i] = remap[slot]
		live = live && slots[i] >= 0
	}
	return live
}
