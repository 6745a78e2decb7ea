package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/fault"
	"entangled/internal/frame"
)

// The log's two sizes: a segment rotates past rotateBytes, and the
// backend compacts once compactBytes of log accumulate past the last
// snapshot.
const (
	rotateBytes  = 4 << 20
	compactBytes = 64 << 20
)

// Options configures Open. The zero value is usable: one shard and an
// fsync on every append.
type Options struct {
	// Shards is the hash-partition count of the store the logs replay
	// into. 0 means 1 (a plain instance); >1 builds a ShardedInstance.
	// The count is recorded in meta.json on first open and must match on
	// every reopen — replaying one mutation stream into a different
	// shard count would reorder tuples across parts.
	Shards int
	// Sync is the fsync policy of the log.
	Sync SyncPolicy
	// FS is the filesystem every byte goes through (default fault.OS).
	// Tests inject fault.NewFS wrappers here; nothing in the backend
	// touches os.* directly.
	FS fault.FS
}

// RecoveryStats reports what Open replayed. It is embedded in the body
// of GET /v1/recovery (api.RecoveryStatus).
type RecoveryStats struct {
	// SnapshotSeq is the snapshot the store was restored from (0: none).
	SnapshotSeq int `json:"snapshot_seq,omitempty"`
	// SnapshotFrames is the number of mutations in that snapshot.
	SnapshotFrames int `json:"snapshot_frames,omitempty"`
	// WALFrames is the number of mutations replayed from log segments.
	WALFrames int `json:"wal_frames,omitempty"`
	// WALSegments is the number of log segments replayed.
	WALSegments int `json:"wal_segments,omitempty"`
	// TornTail is true when the last segment ended in a torn frame that
	// recovery truncated away.
	TornTail bool `json:"torn_tail,omitempty"`
	// Sessions and SessionEvents count the live sessions the log holds
	// and their events; SessionTornTails counts the per-session journal
	// files of an older data directory that the import found torn.
	Sessions         int `json:"sessions,omitempty"`
	SessionEvents    int `json:"session_events,omitempty"`
	SessionTornTails int `json:"session_torn_tails,omitempty"`
	// DurationMS is wall time spent in Open.
	DurationMS int64 `json:"duration_ms,omitempty"`
}

// Metrics is a point-in-time snapshot of the backend's durability
// counters: appends, bytes and fsyncs of the log's store frames and of
// its session frames (an fsync covering both kinds counts for each),
// plus compaction state. It is the "persist" block of /metrics
// (api.PersistMetrics).
type Metrics struct {
	StoreAppends   int64 `json:"store_appends"`
	StoreBytes     int64 `json:"store_bytes"`
	StoreSyncs     int64 `json:"store_syncs"`
	StoreRotations int64 `json:"store_rotations"`
	SessionAppends int64 `json:"session_appends"`
	SessionBytes   int64 `json:"session_bytes"`
	SessionSyncs   int64 `json:"session_syncs"`
	// OpenJournals counts the sessions live in the log: created or
	// recovered, not dropped.
	OpenJournals int   `json:"open_journals"`
	SnapshotSeq  int   `json:"snapshot_seq"`
	Compactions  int64 `json:"compactions"`
	// Degraded-mode state: whether the backend is currently read-only,
	// how many times it entered that state, probe attempts/failures,
	// payloads queued for the next successful probe to flush, and
	// auto-compactions that failed without failing an ack.
	Degraded        bool  `json:"degraded,omitempty"`
	DegradeEvents   int64 `json:"degrade_events,omitempty"`
	Probes          int64 `json:"probes,omitempty"`
	ProbeFailures   int64 `json:"probe_failures,omitempty"`
	PendingAppends  int   `json:"pending_appends,omitempty"`
	CompactFailures int64 `json:"compact_failures,omitempty"`
}

// backendMeta is the meta.json shape: the store shape the logs replay
// into, pinned at first open.
type backendMeta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// ErrDegraded rejects a write while the backend is degraded
// (read-only). The write was NOT applied — its fate is known, so the
// caller may retry freely once a probe write succeeds.
var ErrDegraded = errors.New("persist: backend degraded: writes rejected until a probe write succeeds")

// ErrIndeterminate fails the ack of a write that WAS applied in memory
// but whose journal append failed. The payload is queued: a later
// successful probe makes it durable; a crash before that loses it.
// Either way the ack failed, so no acked write is lost — but a blind
// retry of a non-idempotent write may double-apply.
var ErrIndeterminate = errors.New("persist: ack indeterminate: applied in memory, not yet durable")

// Backend is a durable db.WriteStore: an in-memory Instance or
// ShardedInstance that journals every applied mutation to a rotating
// log, snapshots itself as a compacted mutation stream, and carries the
// named sessions' lifecycles and events in the same log. Reads go
// straight to the embedded in-memory store (queries cost no I/O); a
// batch of writes pays one framed append plus the sync policy, and
// under SyncAlways concurrent appends share one fsync (commit).
//
// Degraded mode: when an append or fsync fails, every payload it lost
// queues on one pending list in log order, the ack fails with
// ErrIndeterminate, and the backend turns read-only — later store writes
// are rejected with ErrDegraded BEFORE being applied, so memory never
// runs ahead of the log by more than the queue. Probe writes a scratch
// file and, on success, repairs the log, flushes the queue as one
// append, and lifts the degradation.
type Backend struct {
	dir      string
	storeDir string
	opts     Options
	fs       fault.FS
	shards   int
	fresh    bool

	memStore // the in-memory store: reads are its own, Apply is journaled
	router   db.Router

	mu        sync.Mutex // serialises appends, compaction, close
	cond      sync.Cond  // on mu: a group commit's fsync ended
	wal       *wal
	pending   [][]byte // payloads awaiting a successful probe, in log order
	scratch   []byte   // the session payload being appended
	snapSeq   int
	sinceSnap int64
	// compactBytes is the constant, unless a test shrinks it after Open.
	compactBytes int64
	closed       bool
	journals     int          // sessions live in the log
	lives        sessionLives // what Open recovered, until RecoverSessions

	cause           atomic.Pointer[error] // why the backend is degraded; nil when healthy
	degradeEvents   atomic.Int64
	probes          atomic.Int64
	probeFailures   atomic.Int64
	compactFailures atomic.Int64
	compactions     atomic.Int64

	rec RecoveryStats
}

// memStore names the embedded in-memory store without exporting it.
type memStore = db.WriteStore

var (
	_ db.WriteStore  = (*Backend)(nil)
	_ db.Router      = (*Backend)(nil)
	_ db.PlanStatser = (*Backend)(nil)
)

// Open opens (creating if needed) the data directory and restores it:
// load the newest snapshot, replay every segment at or above its
// number — mutations into the store, session frames into each live
// session's history — and truncate a torn tail on the last segment.
// Mid-log corruption is a *CorruptError and Open fails. A data
// directory from before the one log has its session files imported
// (importSessions). RecoverSessions hands out the sessions.
func Open(dir string, opts Options) (*Backend, error) {
	start := time.Now()
	if opts.FS == nil {
		opts.FS = fault.OS
	}
	b := &Backend{dir: dir, storeDir: filepath.Join(dir, "store"), opts: opts, fs: opts.FS, lives: sessionLives{},
		compactBytes: compactBytes}
	b.cond.L = &b.mu
	if err := b.fs.MkdirAll(b.storeDir, 0o755); err != nil {
		return nil, err
	}
	if err := b.loadMeta(); err != nil {
		return nil, err
	}
	if b.shards <= 1 {
		b.memStore = db.NewInstance()
	} else {
		sh := db.NewShardedInstance(b.shards)
		b.memStore = sh
		b.router = sh
	}
	if err := b.recoverStore(); err != nil {
		return nil, err
	}
	if err := b.importSessions(); err != nil {
		return nil, err
	}
	b.journals, b.rec.Sessions = len(b.lives), len(b.lives)
	for _, life := range b.lives {
		b.rec.SessionEvents += len(life) - 1
	}
	b.rec.DurationMS = time.Since(start).Milliseconds()
	return b, nil
}

// loadMeta pins the shard count: first open writes it, reopens must
// match.
func (b *Backend) loadMeta() error {
	path := filepath.Join(b.dir, "meta.json")
	data, err := b.fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		b.fresh = true
		b.shards = b.opts.Shards
		if b.shards <= 0 {
			b.shards = 1
		}
		data, _ = json.Marshal(backendMeta{Version: 1, Shards: b.shards})
		return b.publish(b.dir, "meta.json.tmp", "meta.json", func(w io.Writer) error {
			_, err := w.Write(append(data, '\n'))
			return err
		})
	}
	if err != nil {
		return err
	}
	var meta backendMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return fmt.Errorf("persist: reading %s: %w", path, err)
	}
	if meta.Shards <= 0 {
		return fmt.Errorf("persist: %s records an invalid shard count %d", path, meta.Shards)
	}
	if b.opts.Shards != 0 && b.opts.Shards != meta.Shards {
		return fmt.Errorf("persist: data dir was created with %d shard(s), reopened asking for %d", meta.Shards, b.opts.Shards)
	}
	b.shards = meta.Shards
	return nil
}

// publish makes dir/name appear whole or not at all: the content is
// written to dir/tmp, fsynced, renamed into place, and the directory
// fsynced. A bare WriteFile + SyncDir makes the name durable but not
// the bytes (a power loss would leave an empty meta.json that fails
// every later Open), and a failed directory sync after the rename is
// exactly the crash window publication exists to close — the rename
// may not survive power loss — so it must not report success.
func (b *Backend) publish(dir, tmp, name string, write func(io.Writer) error) error {
	tmp = filepath.Join(dir, tmp)
	err := b.writeFile(tmp, write)
	if err == nil {
		err = b.fs.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		b.fs.Remove(tmp)
		return err
	}
	return b.fs.SyncDir(dir)
}

// writeFile writes path afresh and fsyncs it.
func (b *Backend) writeFile(path string, write func(io.Writer) error) error {
	f, err := b.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// recoverStore replays snapshot + segments and opens a fresh segment
// for appends.
func (b *Backend) recoverStore() error {
	segs, snaps, err := scanStoreDir(b.fs, b.storeDir)
	if err != nil {
		return err
	}
	mutations := 0
	replay := func(payload []byte) error {
		if kindOf(payload) == kindSession {
			return b.lives.add(payload)
		}
		mutations++
		return b.applyFrame(payload)
	}
	if len(snaps) > 0 {
		b.snapSeq = snaps[len(snaps)-1]
		// Snapshots are written to a temp file and renamed, so a torn
		// snapshot is real corruption, not a crash artifact.
		if _, _, err := replayFile(b.fs, filepath.Join(b.storeDir, snapName(b.snapSeq)), replay); err != nil {
			return err
		}
		b.rec.SnapshotSeq = b.snapSeq
		b.rec.SnapshotFrames = mutations
	}
	// Drop files a crashed compaction left behind: snapshots and
	// segments the newest snapshot superseded.
	for _, s := range snaps[:max(len(snaps)-1, 0)] {
		b.fs.Remove(filepath.Join(b.storeDir, snapName(s)))
	}
	live := segs[:0]
	for _, s := range segs {
		if s < b.snapSeq {
			b.fs.Remove(filepath.Join(b.storeDir, segName(s)))
		} else {
			live = append(live, s)
		}
	}
	for i, s := range live {
		path := filepath.Join(b.storeDir, segName(s))
		_, valid, err := replayFile(b.fs, path, replay)
		if err != nil {
			if _, torn := err.(*CorruptError); torn && i == len(live)-1 {
				// A crash can tear only the tail of the last segment:
				// truncate past the last valid frame and carry on.
				if terr := b.fs.Truncate(path, valid); terr != nil {
					return terr
				}
				b.rec.TornTail = true
			} else {
				return err
			}
		}
		b.rec.WALSegments++
		b.sinceSnap += valid
	}
	b.rec.WALFrames = mutations - b.rec.SnapshotFrames
	next := b.snapSeq + 1
	if len(live) > 0 {
		next = max(next, live[len(live)-1]+1)
	}
	b.wal = &wal{dir: b.storeDir, fsys: b.fs, policy: b.opts.Sync, rotateBytes: rotateBytes,
		lastSync: time.Now(), flush: func() { _ = b.Sync() }}
	return b.wal.open(next, 0)
}

// applyFrame decodes one journaled mutation and applies it. Failures
// here (valid CRC, undecodable or unappliable payload) mean a writer
// bug, not a torn write, and fail recovery loudly.
func (b *Backend) applyFrame(payload []byte) error {
	var m db.Mutation
	if err := json.Unmarshal(payload, &m); err != nil {
		return fmt.Errorf("persist: decoding journaled mutation: %w", err)
	}
	if err := b.memStore.Apply(m); err != nil {
		return fmt.Errorf("persist: replaying %s: %w", m, err)
	}
	return nil
}

// Fresh reports whether Open created the data directory's meta on this
// open — i.e. the store has never held data and needs populating.
func (b *Backend) Fresh() bool { return b.fresh }

// Shards returns the pinned shard count.
func (b *Backend) Shards() int { return b.shards }

// Dir returns the data directory.
func (b *Backend) Dir() string { return b.dir }

// RecoveryStats returns what Open replayed.
func (b *Backend) RecoveryStats() RecoveryStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rec
}

// Degraded reports whether the backend is read-only awaiting a
// successful probe.
func (b *Backend) Degraded() bool { return b.cause.Load() != nil }

// DegradeCause returns the error that flipped the backend degraded
// (nil when healthy).
func (b *Backend) DegradeCause() error {
	if p := b.cause.Load(); p != nil {
		return *p
	}
	return nil
}

// Apply applies the batch's longest valid prefix to the in-memory
// store and journals it as one append per segment. The in-memory apply
// runs first so an invalid mutation never reaches the log — a journal
// replay cannot fail to apply; its *db.MutationError is returned once
// the prefix before it is durable. While degraded, writes are rejected
// with ErrDegraded BEFORE touching the in-memory store; a log failure
// on a healthy backend queues every payload not durable, degrades the
// backend, and fails the ack with ErrIndeterminate.
func (b *Backend) Apply(ms ...db.Mutation) error {
	var invalid error
	payloads := make([][]byte, 0, len(ms))
	for i, m := range ms {
		payload, err := json.Marshal(m)
		if err != nil {
			ms, invalid = ms[:i], &db.MutationError{Index: i, Err: err}
			break
		}
		payloads = append(payloads, payload)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errClosed
	}
	if b.Degraded() {
		return fmt.Errorf("%w (cause: %v)", ErrDegraded, b.DegradeCause())
	}
	if err := b.memStore.Apply(ms...); err != nil {
		var me *db.MutationError
		if !errors.As(err, &me) {
			return err
		}
		payloads, invalid = payloads[:me.Index], err
	}
	if len(payloads) == 0 {
		return invalid
	}
	if err := b.appendLocked(false, payloads...); err != nil {
		return errors.Join(fmt.Errorf("persist: store WAL: %w", err), invalid)
	}
	return invalid
}

// appendLocked is the one append path for both frame kinds. It writes
// payloads; with sync set it fsyncs them holding b.mu, so no frame lands
// behind them, and otherwise under SyncAlways it waits in commit. A
// failure queues every payload it lost, in log order, degrades the
// backend and returns ErrIndeterminate. Past compactBytes of log it
// compacts; a failed compaction waits for another compactBytes.
func (b *Backend) appendLocked(sync bool, payloads ...[]byte) error {
	w := b.wal
	w.awaited = sync
	n, err := w.append(payloads...)
	b.sinceSnap += framedSize(payloads[:n]...)
	switch {
	case err != nil:
		b.lose(err)
		for _, p := range payloads[n:] {
			b.pending = append(b.pending, bytes.Clone(p))
		}
	case sync:
		err = b.syncLocked()
	case b.opts.Sync == SyncAlways:
		err = b.commit(w.written)
	}
	w.awaited = false
	if err != nil {
		return fmt.Errorf("%w: %w", ErrIndeterminate, err)
	}
	if b.sinceSnap >= b.compactBytes && !b.Degraded() && b.compactLocked() != nil {
		b.compactFailures.Add(1)
		b.sinceSnap = 0
	}
	return nil
}

// commit returns once an fsync covers the log up to end — group
// commit. Appends write under b.mu, then wait here: the first waiter
// fsyncs everything written so far with the lock released, and every
// waiter that fsync covers returns with it, so concurrent appends share
// one fsync. A frame a failure lost fails with that failure.
func (b *Backend) commit(end int64) error {
	w := b.wal
	w.waiting++
	defer func() {
		if w.waiting--; w.waiting == 0 {
			w.lost = w.lost[:0]
		}
	}()
	for {
		for _, r := range w.lost {
			if end > r.from && end <= r.to {
				return r.err
			}
		}
		if end <= w.synced {
			return nil
		}
		if w.syncing {
			b.cond.Wait()
			continue
		}
		f, target, kinds := w.f, w.written, w.kinds
		w.syncing, w.kinds, w.repaired = true, 0, false
		b.mu.Unlock()
		err := f.Sync()
		b.mu.Lock()
		w.syncing = false
		b.cond.Broadcast()
		switch {
		case err == nil:
			w.settle(target, kinds)
		case target > w.synced:
			// Nothing settled these bytes meanwhile (a rotation or a
			// failure would have), so f is still the active segment.
			w.broken = true
			b.lose(fmt.Errorf("persist: syncing %s: %w", w.path(w.seq), err))
		}
	}
}

// lose fails every frame written since the last sync and degrades the
// backend. Those buf holds go back to the head of the pending queue and
// the segment's end rolls back past them, so repair truncates them; the
// rest, acked under a laxer policy, stay.
func (b *Backend) lose(err error) {
	w := b.wal
	var tail [][]byte
	// buf holds whole frames this process framed: replay cannot fail.
	_, _, _ = ReplayFrames(bytes.NewReader(w.buf), func(p []byte) error {
		tail = append(tail, bytes.Clone(p))
		return nil
	})
	b.pending = append(tail, b.pending...)
	w.size -= int64(len(w.buf))
	w.shed(len(w.buf))
	w.fail(err)
	if b.cause.CompareAndSwap(nil, &err) { // the first cause stays
		b.degradeEvents.Add(1)
	}
}

var errClosed = fmt.Errorf("persist: backend is closed")

// Probe checks whether the filesystem accepts durable writes again: it
// writes, syncs, and removes a scratch file, then repairs the log and
// flushes the pending payloads in order as one synced append. Only when
// everything is durable does the degradation lift. Cheap and a no-op
// when healthy and nothing is pending.
func (b *Backend) Probe() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errClosed
	}
	b.probes.Add(1)
	path := filepath.Join(b.dir, "probe.tmp")
	err := b.writeFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("probe\n"))
		return err
	})
	if rerr := b.fs.Remove(path); err == nil {
		err = rerr
	}
	if err == nil {
		err = b.wal.repair()
	}
	if err == nil {
		flush := b.pending
		b.pending = nil
		err = b.appendLocked(true, flush...)
	}
	if err != nil {
		b.probeFailures.Add(1)
		return err
	}
	b.cause.Store(nil)
	return nil
}

// Compact writes the store and every live session as a snapshot and
// deletes the segments and snapshot it supersedes, so replay costs
// O(store + live sessions' histories), not O(write history).
func (b *Backend) Compact() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errClosed
	}
	return b.compactLocked()
}

// compactLocked writes snapshot N — the store from memory, then each
// live session's frames read back from the files it supersedes — and
// rotates to segment N before publishing it, so it covers exactly the
// segments below N. Reading and writing, what can fail, come first.
func (b *Backend) compactLocked() error {
	if b.Degraded() {
		return fmt.Errorf("persist: compacting: %w", ErrDegraded)
	}
	oldSnap, oldSeq := b.snapSeq, b.wal.seq
	lives := sessionLives{}
	superseded := []string{snapName(oldSnap)}
	for s := oldSnap; s <= oldSeq; s++ {
		superseded = append(superseded, segName(s))
	}
	for _, name := range superseded {
		if _, _, err := replayFile(b.fs, filepath.Join(b.storeDir, name), lives.add); err != nil {
			return err
		}
	}
	err := b.publish(b.storeDir, "snapshot.tmp", snapName(oldSeq+1), func(w io.Writer) error {
		// A failed write sticks in bw, and Flush reports it.
		bw := bufio.NewWriterSize(w, 256<<10)
		var framed []byte
		err := b.memStore.DumpMutations(func(m db.Mutation) error {
			payload, err := json.Marshal(m)
			framed = frame.Append(framed[:0], payload)
			_, _ = bw.Write(framed)
			return err
		})
		for _, name := range lives.names() {
			for _, p := range lives[name] {
				framed = frame.Append(framed[:0], p)
				_, _ = bw.Write(framed)
			}
		}
		if err == nil {
			err = bw.Flush()
		}
		if err == nil {
			if err = b.wal.rotate(); err != nil {
				b.lose(err)
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	for _, name := range superseded {
		b.fs.Remove(filepath.Join(b.storeDir, name))
	}
	b.snapSeq = oldSeq + 1
	b.sinceSnap = 0
	b.compactions.Add(1)
	return nil
}

// Sync flushes the log to stable storage regardless of the sync
// policy — the graceful-drain hook and the interval timer. A failed
// flush degrades the backend so the probe path can repair it.
func (b *Backend) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errClosed
	}
	return b.syncLocked()
}

func (b *Backend) syncLocked() error {
	err := b.wal.sync()
	if err != nil {
		b.lose(err)
	}
	return err
}

// Close syncs and closes the log. The backend rejects writes
// afterwards; the in-memory store stays readable.
func (b *Backend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	err := b.syncLocked()
	if cerr := b.wal.close(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes the log WITHOUT syncing: the crash-simulation hook for
// recovery tests. Data the OS already buffered survives a reopen (as it
// would a process crash); nothing is flushed beyond what the sync
// policy already flushed, and an append still waiting for its fsync
// fails with ErrIndeterminate.
func (b *Backend) Abort() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.wal.close()
	b.wal.fail(errClosed)
}

// Metrics snapshots the durability counters.
func (b *Backend) Metrics() Metrics {
	b.mu.Lock()
	snapSeq, pending, journals := b.snapSeq, len(b.pending), b.journals
	b.mu.Unlock()
	st, se := &b.wal.ctr[kindStore], &b.wal.ctr[kindSession]
	return Metrics{
		StoreAppends:    st.appends.Load(),
		StoreBytes:      st.bytes.Load(),
		StoreSyncs:      st.syncs.Load(),
		StoreRotations:  b.wal.rotations.Load(),
		SessionAppends:  se.appends.Load(),
		SessionBytes:    se.bytes.Load(),
		SessionSyncs:    se.syncs.Load(),
		OpenJournals:    journals,
		SnapshotSeq:     snapSeq,
		Compactions:     b.compactions.Load(),
		Degraded:        b.Degraded(),
		DegradeEvents:   b.degradeEvents.Load(),
		Probes:          b.probes.Load(),
		ProbeFailures:   b.probeFailures.Load(),
		PendingAppends:  pending,
		CompactFailures: b.compactFailures.Load(),
	}
}

// Route exposes the inner sharded store's single-shard routing; a
// one-shard backend routes nothing.
func (b *Backend) Route(qs []eq.Query) (db.Store, bool) {
	if b.router == nil {
		return nil, false
	}
	return b.router.Route(qs)
}

// PlanStats aggregates the inner store's compiled-plan-cache counters.
func (b *Backend) PlanStats() db.PlanCacheStats {
	st, _ := db.AggregatePlanStats(b.memStore)
	return st
}
