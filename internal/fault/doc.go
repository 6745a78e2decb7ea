// Package fault is a deterministic fault-injection layer for the three
// seams the service already has: the filesystem under internal/persist
// (FS/File — injectable write, sync, and rename errors, torn writes,
// ENOSPC, latency), the network under both protocols (Listener/Conn —
// drops, resets, stalls, byte corruption for the CRC frames to catch),
// and the query path (NewStore, a db.Guard — injected errors and stalls
// mid-plan, matched on the query's db.Guard descriptor).
//
// Faults come from an Injector: an ordered list of rules, each matching
// an operation kind and a path substring, firing after a skip count,
// for a bounded number of times, optionally gated by a seeded
// probability. Counted rules make a fault schedule reproducible — the
// same op sequence always hits the same faults — which is what lets
// the chaos soak in internal/server assert exact degraded-mode
// transitions. A nil *Injector injects nothing, so production code can
// thread the wrappers unconditionally; fault.OS is the passthrough
// filesystem used when no faults are wanted.
package fault
