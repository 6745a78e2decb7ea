package persist

import (
	"bufio"
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

// Options configures Open. The zero value is usable: one shard, fsync
// on every append, 4 MiB segments, compaction after 64 MiB of log.
type Options struct {
	// Shards is the hash-partition count of the store the logs replay
	// into. 0 means 1 (a plain instance); >1 builds a ShardedInstance.
	// The count is recorded in meta.json on first open and must match on
	// every reopen — replaying one mutation stream into a different
	// shard count would reorder tuples across parts.
	Shards int
	// Sync is the fsync policy for the store WAL and session journals.
	Sync SyncPolicy
	// RotateBytes caps a WAL segment before rotation (default 4 MiB).
	RotateBytes int64
	// CompactBytes triggers snapshot-truncate compaction once that many
	// log bytes accumulate past the last snapshot (default 64 MiB;
	// negative disables automatic compaction).
	CompactBytes int64
	// FS is the filesystem every byte goes through (default fault.OS).
	// Tests inject fault.NewFS wrappers here; nothing in the backend
	// touches os.* directly.
	FS fault.FS
}

// RecoveryStats reports what Open (and RecoverSessions) replayed. It is
// embedded in the body of GET /v1/recovery (api.RecoveryStatus).
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
	// Sessions and SessionEvents count recovered session journals and
	// the events replayed from them; SessionTornTails counts journals
	// that ended in a truncated torn frame.
	Sessions         int `json:"sessions,omitempty"`
	SessionEvents    int `json:"session_events,omitempty"`
	SessionTornTails int `json:"session_torn_tails,omitempty"`
	// DurationMS is wall time spent in Open's store replay.
	DurationMS int64 `json:"duration_ms,omitempty"`
}

// Metrics is a point-in-time snapshot of the backend's durability
// counters: appends, bytes and fsyncs for the store mutation log and
// for the session event journals, plus compaction state. It is the
// "persist" block of /metrics (api.PersistMetrics).
type Metrics struct {
	StoreAppends   int64 `json:"store_appends"`
	StoreBytes     int64 `json:"store_bytes"`
	StoreSyncs     int64 `json:"store_syncs"`
	StoreRotations int64 `json:"store_rotations"`
	SessionAppends int64 `json:"session_appends"`
	SessionBytes   int64 `json:"session_bytes"`
	SessionSyncs   int64 `json:"session_syncs"`
	OpenJournals   int   `json:"open_journals"`
	SnapshotSeq    int   `json:"snapshot_seq"`
	Compactions    int64 `json:"compactions"`
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
// WAL, snapshots itself as a compacted mutation stream, and owns the
// per-session event journals under the same data directory. Reads go
// straight to the embedded in-memory store (queries cost no I/O); a
// batch of writes pays one framed append plus the sync policy.
//
// Degraded mode: when an append or fsync fails, the failed payloads
// queue on a pending list, the ack fails with ErrIndeterminate, and
// the backend turns read-only — every later write is rejected with
// ErrDegraded BEFORE being applied, so the in-memory store never runs
// ahead of the journal by more than the queued payloads. Probe writes
// a scratch file through the same filesystem and, on success, repairs
// the logs, flushes each log's pending payloads in order as one append,
// and lifts the degradation.
type Backend struct {
	dir         string
	storeDir    string
	sessionsDir string
	opts        Options
	fs          fault.FS
	shards      int
	fresh       bool

	memStore // the in-memory store: reads are its own, Apply is journaled
	router   db.Router

	mu        sync.Mutex // serialises writes, compaction, close
	wal       *wal
	pending   [][]byte // store payloads awaiting a successful probe
	snapSeq   int
	sinceSnap int64
	closed    bool

	degraded        atomic.Bool
	dmu             sync.Mutex // guards degradeCause
	degradeCause    error
	degradeEvents   atomic.Int64
	probes          atomic.Int64
	probeFailures   atomic.Int64
	compactFailures atomic.Int64

	storeCtr    walCounters
	sessionCtr  walCounters
	compactions atomic.Int64

	smu      sync.Mutex
	sessions map[string]*SessionJournal

	rec RecoveryStats
}

// memStore names the embedded in-memory store without exporting it.
type memStore = db.WriteStore

var (
	_ db.WriteStore  = (*Backend)(nil)
	_ db.Router      = (*Backend)(nil)
	_ db.PlanStatser = (*Backend)(nil)
)

// Open opens (creating if needed) the data directory and restores the
// store: load the newest snapshot, replay every segment at or above its
// number, truncate a torn tail on the last segment. Mid-log corruption
// is a *CorruptError and Open fails. Session journals are NOT replayed
// here — call RecoverSessions for those.
func Open(dir string, opts Options) (*Backend, error) {
	start := time.Now()
	if opts.RotateBytes <= 0 {
		opts.RotateBytes = 4 << 20
	}
	if opts.CompactBytes == 0 {
		opts.CompactBytes = 64 << 20
	}
	if opts.FS == nil {
		opts.FS = fault.OS
	}
	b := &Backend{
		dir:         dir,
		storeDir:    filepath.Join(dir, "store"),
		sessionsDir: filepath.Join(dir, "sessions"),
		opts:        opts,
		fs:          opts.FS,
		sessions:    make(map[string]*SessionJournal),
	}
	for _, d := range []string{b.storeDir, b.sessionsDir} {
		if err := b.fs.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
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
	f, err := b.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
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
	if err == nil {
		err = b.fs.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		b.fs.Remove(tmp)
		return err
	}
	return b.fs.SyncDir(dir)
}

// recoverStore replays snapshot + segments into the in-memory store
// and opens a fresh segment for appends.
func (b *Backend) recoverStore() error {
	segs, snaps, err := scanStoreDir(b.fs, b.storeDir)
	if err != nil {
		return err
	}
	if len(snaps) > 0 {
		b.snapSeq = snaps[len(snaps)-1]
		path := filepath.Join(b.storeDir, snapName(b.snapSeq))
		n, _, err := replayFile(b.fs, path, b.applyFrame)
		if err != nil {
			// Snapshots are written to a temp file and renamed, so a
			// torn snapshot is real corruption, not a crash artifact.
			return err
		}
		b.rec.SnapshotSeq = b.snapSeq
		b.rec.SnapshotFrames = n
	}
	// Drop files a crashed compaction left behind: snapshots and
	// segments the newest snapshot superseded.
	for _, s := range snaps {
		if s < b.snapSeq {
			b.fs.Remove(filepath.Join(b.storeDir, snapName(s)))
		}
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
		n, valid, err := replayFile(b.fs, path, b.applyFrame)
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
		b.rec.WALFrames += n
		b.rec.WALSegments++
		b.sinceSnap += valid
	}
	next := b.snapSeq + 1
	if len(live) > 0 && live[len(live)-1]+1 > next {
		next = live[len(live)-1] + 1
	}
	if next < 1 {
		next = 1
	}
	b.wal, err = openWAL(b.fs, b.storeDir, next, b.opts.Sync, b.opts.RotateBytes, &b.storeCtr, func() { _ = b.syncWAL() })
	return err
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

// RecoveryStats returns what Open and RecoverSessions replayed.
func (b *Backend) RecoveryStats() RecoveryStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rec
}

// Degraded reports whether the backend is read-only awaiting a
// successful probe.
func (b *Backend) Degraded() bool { return b.degraded.Load() }

// DegradeCause returns the error that flipped the backend degraded
// (nil when healthy).
func (b *Backend) DegradeCause() error {
	b.dmu.Lock()
	defer b.dmu.Unlock()
	return b.degradeCause
}

// markDegraded flips the backend read-only, recording the first cause.
func (b *Backend) markDegraded(cause error) {
	if b.degraded.CompareAndSwap(false, true) {
		b.degradeEvents.Add(1)
		b.dmu.Lock()
		b.degradeCause = cause
		b.dmu.Unlock()
	}
}

func (b *Backend) clearDegraded() {
	if b.degraded.CompareAndSwap(true, false) {
		b.dmu.Lock()
		b.degradeCause = nil
		b.dmu.Unlock()
	}
}

// Apply applies the batch's longest valid prefix to the in-memory
// store, journals it as one append per segment, then checks compaction.
// The in-memory apply runs first so an invalid mutation never reaches
// the log — a journal replay cannot fail to apply; its *db.MutationError
// is returned once the prefix before it is durable. While degraded,
// writes are rejected with ErrDegraded BEFORE touching the in-memory
// store; a journal failure on a healthy backend queues every payload
// not written, degrades the backend, and fails the ack with
// ErrIndeterminate.
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
	if b.degraded.Load() {
		return fmt.Errorf("%w (cause: %v)", ErrDegraded, b.DegradeCause())
	}
	if err := b.memStore.Apply(ms...); err != nil {
		var me *db.MutationError
		if !errors.As(err, &me) {
			return err
		}
		payloads, invalid = payloads[:me.Index], err
	}
	n, err := b.wal.append(payloads...)
	b.sinceSnap += framedSize(payloads[:n]...)
	if err != nil {
		b.pending = append(b.pending, payloads[n:]...)
		b.markDegraded(err)
		return errors.Join(fmt.Errorf("persist: store WAL: %w: %w", ErrIndeterminate, err), invalid)
	}
	if b.opts.CompactBytes > 0 && b.sinceSnap >= b.opts.CompactBytes {
		if err := b.compactLocked(); err != nil {
			// The batch is applied AND journaled — the ack is good.
			// Compaction retries on a later write; only count the miss.
			b.compactFailures.Add(1)
		}
	}
	return invalid
}

var errClosed = fmt.Errorf("persist: backend is closed")

// Probe checks whether the filesystem accepts durable writes again: it
// writes, syncs, and removes a scratch file, then repairs the WAL and
// every open session journal and flushes their pending payloads in
// order. Only when everything is durable does the degradation lift.
// Cheap and a no-op when healthy and nothing is pending.
func (b *Backend) Probe() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errClosed
	}
	b.probes.Add(1)
	err := b.probeLocked()
	b.mu.Unlock()
	if err == nil {
		for _, j := range b.openJournals() {
			if ferr := j.flushPending(); ferr != nil {
				err = ferr
				break
			}
		}
	}
	if err != nil {
		b.probeFailures.Add(1)
		return err
	}
	b.clearDegraded()
	return nil
}

// probeLocked runs the scratch-file probe and the store-WAL flush.
func (b *Backend) probeLocked() error {
	path := filepath.Join(b.dir, "probe.tmp")
	f, err := b.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte("probe\n"))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if rerr := b.fs.Remove(path); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	if err := b.wal.cur.repair(); err != nil {
		return err
	}
	n, err := b.wal.append(b.pending...)
	b.sinceSnap += framedSize(b.pending[:n]...)
	if b.pending = b.pending[n:]; err != nil {
		return err
	}
	return b.wal.cur.sync()
}

// Compact writes the store as a snapshot (a compacted mutation
// stream), rotates the WAL past it, and deletes the segments and
// snapshots the new snapshot supersedes. Log replay cost resets to
// O(store), independent of write history.
func (b *Backend) Compact() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errClosed
	}
	return b.compactLocked()
}

func (b *Backend) compactLocked() error {
	newSeq := b.wal.seq + 1
	err := b.publish(b.storeDir, "snapshot.tmp", snapName(newSeq), func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 256<<10)
		var framed []byte
		err := b.memStore.DumpMutations(func(m db.Mutation) error {
			payload, err := json.Marshal(m)
			if err != nil {
				return err
			}
			framed = frame.Append(framed[:0], payload)
			_, err = bw.Write(framed)
			return err
		})
		if err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	oldSeq := b.wal.seq
	if err := b.wal.rotateTo(newSeq); err != nil {
		return err
	}
	for s := b.snapSeq; s <= oldSeq; s++ {
		b.fs.Remove(filepath.Join(b.storeDir, segName(s)))
	}
	if b.snapSeq > 0 {
		b.fs.Remove(filepath.Join(b.storeDir, snapName(b.snapSeq)))
	}
	b.snapSeq = newSeq
	b.sinceSnap = 0
	b.compactions.Add(1)
	return nil
}

// Sync flushes the store WAL and every open session journal to stable
// storage regardless of the sync policy — the graceful-drain hook. A
// failed flush degrades the backend so the probe path can repair it.
func (b *Backend) Sync() error {
	err := b.syncWAL()
	for _, j := range b.openJournals() {
		if serr := j.Sync(); err == nil {
			err = serr
		}
	}
	return err
}

// syncWAL flushes the store WAL, degrading the backend if that fails.
// Sync and the WAL's interval timer share it.
func (b *Backend) syncWAL() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errClosed
	}
	err := b.wal.cur.sync()
	if err != nil {
		b.markDegraded(err)
	}
	return err
}

// Close syncs and closes the WAL and every open session journal. The
// backend rejects writes afterwards; the in-memory store stays
// readable.
func (b *Backend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	err := b.wal.cur.close()
	b.mu.Unlock()
	for _, j := range b.openJournals() {
		if cerr := j.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Abort closes every file handle WITHOUT syncing: the crash-simulation
// hook for recovery tests. Data the OS already buffered survives a
// reopen (as it would a process crash); nothing is flushed beyond what
// the sync policy already flushed.
func (b *Backend) Abort() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.wal.cur.abort()
	b.mu.Unlock()
	for _, j := range b.openJournals() {
		j.abort()
	}
}

// openJournals snapshots the registered session journals.
func (b *Backend) openJournals() []*SessionJournal {
	b.smu.Lock()
	defer b.smu.Unlock()
	out := make([]*SessionJournal, 0, len(b.sessions))
	for _, j := range b.sessions {
		out = append(out, j)
	}
	return out
}

// Metrics snapshots the durability counters.
func (b *Backend) Metrics() Metrics {
	journals := b.openJournals()
	pendingSessions := 0
	for _, j := range journals {
		pendingSessions += j.pendingLen()
	}
	b.mu.Lock()
	snapSeq := b.snapSeq
	pending := len(b.pending) + pendingSessions
	b.mu.Unlock()
	return Metrics{
		StoreAppends:    b.storeCtr.appends.Load(),
		StoreBytes:      b.storeCtr.bytes.Load(),
		StoreSyncs:      b.storeCtr.syncs.Load(),
		StoreRotations:  b.storeCtr.rotations.Load(),
		SessionAppends:  b.sessionCtr.appends.Load(),
		SessionBytes:    b.sessionCtr.bytes.Load(),
		SessionSyncs:    b.sessionCtr.syncs.Load(),
		OpenJournals:    len(journals),
		SnapshotSeq:     snapSeq,
		Compactions:     b.compactions.Load(),
		Degraded:        b.degraded.Load(),
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
