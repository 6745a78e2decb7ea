// Package persist is the file-backed durable layer under the
// coordination stack: a db.WriteStore that journals every applied
// mutation, and every named streaming session's lifecycle and events,
// to one CRC-framed append-only log, and snapshots the store with the
// live sessions' histories, so a restarted server rebuilds both.
//
// # Layout
//
// A Backend owns one data directory:
//
//	meta.json                 shard count (the store shape logs replay into)
//	store/wal-%06d.log        log segments, rotated by size
//	store/snapshot-%06d.snap  the store as mutations, then each live
//	                          session's frames; covers every segment
//	                          numbered below it
//
// Every file is a sequence of internal/frame frames: a 4-byte
// little-endian payload length, a 4-byte CRC-32 (IEEE) of the payload,
// then the payload — a db.Mutation's JSON object, or a session frame
// (session.go): a tag byte no JSON text starts with (create, event,
// drop), the session's name, then its park flag or a stream.Event's
// JSON. ReplayFrames loops over frame.Read and positions each typed
// failure as a *CorruptError at the first bad frame's offset.
//
// # Recovery contract
//
// Open loads the newest snapshot, replays every segment at or above its
// number — mutations into the store, session frames into each live
// session's history (a create starts one afresh, a drop ends it) — and
// tolerates exactly one torn tail: a short or corrupt frame at the end
// of the LAST segment (the one a crash can tear) is truncated away and
// reported in RecoveryStats. Corruption anywhere else is a
// *CorruptError (errors.Is(err, ErrCorrupt)) and Open fails — never a
// panic, never silent partial state. RecoverSessions then hands out
// each live session's events in admission order, to replay over the
// whole recovered store. A data directory written before the one log
// has its sessions/<name>.wal files imported once, on Open.
//
// Mutations are applied to the in-memory store before they are
// journaled, and the server acks a session event only after it is
// journaled, so an acked write is durable (under SyncAlways) and a
// replayed log never fails to apply. Under SyncAlways an append waits
// for an fsync that covers its last byte; the first waiter fsyncs
// everything written so far and every waiter it covers returns with
// it, so concurrent appends share one fsync. A create, a drop and a
// probe's flush of the pending queue fsync under every policy with the
// backend's mutex held, so no frame lands behind them. A Backend.Apply
// batch is one write per segment it touches. A new segment's name is
// synced before its first frame, and under SyncEvery a timer syncs a
// log left dirty once the interval has passed.
package persist
