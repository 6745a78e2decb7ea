// Package persist is the file-backed durable layer under the
// coordination stack: a db.WriteStore that journals every applied
// mutation to a CRC-framed append-only write-ahead log, snapshots the
// store as a compacted mutation stream, and keeps one event journal per
// named streaming session so a restarted server can rebuild live
// sessions by replay.
//
// # Layout
//
// A Backend owns one data directory:
//
//	meta.json               shard count (the store shape logs replay into)
//	store/wal-%06d.log      mutation log segments, rotated by size
//	store/snapshot-%06d.snap	compacted mutation stream; covers all
//	                        segments numbered below it
//	sessions/<name>.wal     one stream.Event journal per named session
//
// Every log file is a sequence of internal/frame frames: a 4-byte
// little-endian payload length, a 4-byte CRC-32 (IEEE) of the payload,
// then the JSON payload (a db.Mutation or a stream.Event). Frames are
// self-checking, so replay detects torn tails and bit flips without
// trusting file sizes; ReplayFrames loops over frame.Read and positions
// each typed failure as a *CorruptError at the first bad frame's
// offset.
//
// # Recovery contract
//
// Open loads the newest snapshot, replays every segment at or above its
// number, and tolerates exactly one torn tail: a short or corrupt frame
// at the end of the LAST segment (the one a crash can tear) is
// truncated away and reported in RecoveryStats. Corruption anywhere
// else is a *CorruptError (errors.Is(err, ErrCorrupt)) and Open fails —
// never a panic, never silent partial state. Session journals are
// single files, so the same tail rule applies to each.
//
// Mutations are applied to the in-memory store before they are
// journaled, and the server acks a session event only after it is
// journaled, so an acked write is durable (under SyncAlways) and a
// replayed log never fails to apply.
//
// A Backend.Apply batch is one write and one sync per segment it
// touches, so db.ApplyAll of a table acks after one fsync; a probe
// flushes each log's pending payloads the same way. A new segment's
// name is synced before its first frame is acked, and under SyncEvery
// a timer syncs a log left dirty once the interval has passed.
package persist
