package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"entangled/internal/fault"
	"entangled/internal/frame"
)

// SyncPolicy says when appends reach stable storage. The zero value is
// SyncAlways: fsync after every append (a batch is one append), so an
// acked write survives a machine crash. Interval > 0 fsyncs at most
// once per interval, by timer when writes stop (a crash loses at most
// one interval of acked writes); Interval < 0 never fsyncs explicitly
// and trusts the OS page cache (process crashes still lose nothing —
// the data is in kernel buffers — but power loss can).
type SyncPolicy struct {
	Interval time.Duration
}

// SyncAlways fsyncs every append.
var SyncAlways = SyncPolicy{}

// SyncNever leaves flushing to the OS.
var SyncNever = SyncPolicy{Interval: -1}

// SyncEvery fsyncs at most once per d.
func SyncEvery(d time.Duration) SyncPolicy { return SyncPolicy{Interval: d} }

// String renders the policy the way ParseSyncPolicy reads it.
func (p SyncPolicy) String() string {
	switch {
	case p.Interval == 0:
		return "always"
	case p.Interval < 0:
		return "never"
	}
	return p.Interval.String()
}

// ParseSyncPolicy reads "always", "never", or a time.Duration such as
// "100ms" (the coordserve -fsync flag format).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.TrimSpace(s) {
	case "always", "":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return SyncPolicy{}, fmt.Errorf("persist: sync policy %q is not \"always\", \"never\", or a positive duration", s)
	}
	return SyncEvery(d), nil
}

// walCounters aggregates append-path activity across the log files of
// one tier (the store WAL, or all session journals together); appends
// counts frames, so a batch of n adds n.
type walCounters struct {
	appends   atomic.Int64
	bytes     atomic.Int64
	syncs     atomic.Int64
	rotations atomic.Int64
}

// logFile is one append-only framed log with a sync policy. Not
// concurrency-safe: callers serialise appends (the Backend mutex for
// the store WAL, the per-journal mutex for sessions).
//
// A failed write or sync marks the file broken: size stays at the end
// of the last fully-durable frame and further appends are refused
// until repair reopens the handle and truncates back to that point.
// The failed payload is the caller's to retry (the pending queues in
// Backend and SessionJournal), so a repaired log never holds a
// duplicated or half-written frame.
type logFile struct {
	path     string
	fsys     fault.FS
	f        fault.File
	size     int64
	policy   SyncPolicy
	counters *walCounters
	dirty    bool
	broken   bool
	lastSync time.Time
	buf      []byte
	// flush is the owner's locked sync, timed when appends leave it
	// dirty; nil before the owner has one (a journal's meta frame).
	flush func()
	timer *time.Timer
}

// openLogFile opens (creating if needed) a log for appending at size.
// The caller has already replayed and, if necessary, truncated the
// file, so size is the verified end of the last valid frame.
func openLogFile(fsys fault.FS, path string, size int64, policy SyncPolicy, counters *walCounters) (*logFile, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &logFile{path: path, fsys: fsys, f: f, size: size, policy: policy, counters: counters, lastSync: time.Now()}, nil
}

// append writes the framed payloads in one write and applies the sync
// policy once. On any failure the file is marked broken, size rolls
// back to the last good end, and the caller must queue the payloads and
// repair before the next append — a torn or unsynced frame never
// counts as written.
func (lf *logFile) append(payloads ...[]byte) error {
	if lf.broken {
		return fmt.Errorf("persist: %s is broken and needs repair", lf.path)
	}
	if len(payloads) == 0 {
		return nil
	}
	base := lf.size
	lf.buf = lf.buf[:0]
	for _, p := range payloads {
		lf.buf = frame.Append(lf.buf, p)
	}
	n := int64(len(lf.buf))
	_, err := lf.f.Write(lf.buf)
	if n > 64<<10 {
		lf.buf = nil // a bulk load leaves no batch-sized buffer behind
	}
	if err != nil {
		lf.broken = true
		return fmt.Errorf("persist: appending to %s: %w", lf.path, err)
	}
	lf.size += n
	lf.dirty = true
	lf.counters.appends.Add(int64(len(payloads)))
	lf.counters.bytes.Add(n)
	var serr error
	switch {
	case lf.policy.Interval == 0:
		serr = lf.sync()
	case lf.policy.Interval > 0 && time.Since(lf.lastSync) >= lf.policy.Interval:
		serr = lf.sync()
	case lf.policy.Interval > 0 && lf.timer == nil && lf.flush != nil:
		lf.timer = time.AfterFunc(lf.policy.Interval-time.Since(lf.lastSync), lf.flush)
	}
	if serr != nil {
		// The bytes hit the file but never durably: roll the logical end
		// back so repair truncates them and the retry re-appends cleanly.
		lf.size = base
	}
	return serr
}

// sync flushes to stable storage if anything was written since the
// last sync. A failed fsync marks the file broken: after fsync fails,
// retrying it on the same handle can falsely succeed (the kernel may
// have dropped the dirty pages), so repair reopens the file instead.
func (lf *logFile) sync() error {
	lf.disarm()
	if !lf.dirty {
		return nil
	}
	if err := lf.f.Sync(); err != nil {
		lf.broken = true
		return fmt.Errorf("persist: syncing %s: %w", lf.path, err)
	}
	lf.dirty = false
	lf.lastSync = time.Now()
	lf.counters.syncs.Add(1)
	return nil
}

// repair recovers a broken log: reopen by path (the old handle may be
// poisoned or closed), truncate to the last good end, and seek there.
// A no-op on healthy files.
func (lf *logFile) repair() error {
	if !lf.broken {
		return nil
	}
	lf.f.Close()
	f, err := lf.fsys.OpenFile(lf.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(lf.size); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(lf.size, 0); err != nil {
		f.Close()
		return err
	}
	lf.f = f
	lf.broken = false
	lf.dirty = true // flush state unknown: force the next sync to fsync
	return nil
}

// close syncs and closes.
func (lf *logFile) close() error {
	if err := lf.sync(); err != nil {
		lf.f.Close()
		return err
	}
	return lf.f.Close()
}

// abort closes the handle without syncing — the crash-simulation path.
func (lf *logFile) abort() { lf.disarm(); lf.f.Close() }

// disarm stops the interval timer: a sync, close or abort makes it moot.
func (lf *logFile) disarm() {
	if lf.timer != nil {
		lf.timer.Stop()
		lf.timer = nil
	}
}

// framedSize is the log bytes the payloads take once framed.
func framedSize(payloads ...[]byte) (n int64) {
	for _, p := range payloads {
		n += frame.HeaderSize + int64(len(p))
	}
	return n
}

// segName/snapName build the numbered file names of the store log.
func segName(seq int) string  { return fmt.Sprintf("wal-%06d.log", seq) }
func snapName(seq int) string { return fmt.Sprintf("snapshot-%06d.snap", seq) }

// parseSeq extracts N from prefix+"%06d"+ext names; ok=false otherwise.
func parseSeq(name, prefix, ext string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(ext)]
	var n int
	if _, err := fmt.Sscanf(mid, "%d", &n); err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// scanStoreDir lists the store directory's segment and snapshot
// sequence numbers, each ascending.
func scanStoreDir(fsys fault.FS, dir string) (segs, snaps []int, err error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		if n, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, n)
		}
		if n, ok := parseSeq(e.Name(), "snapshot-", ".snap"); ok {
			snaps = append(snaps, n)
		}
	}
	sort.Ints(segs)
	sort.Ints(snaps)
	return segs, snaps, nil
}

// wal is the rotating store-mutation log: numbered segments in dir,
// rotated once the active segment passes rotateBytes. Callers serialise
// through the Backend mutex.
type wal struct {
	dir         string
	fsys        fault.FS
	policy      SyncPolicy
	rotateBytes int64
	counters    *walCounters
	cur         *logFile
	seq         int
	named       bool // cur's directory entry is synced
}

// openWAL starts a fresh segment numbered seq, timed syncs by flush.
func openWAL(fsys fault.FS, dir string, seq int, policy SyncPolicy, rotateBytes int64, counters *walCounters, flush func()) (*wal, error) {
	lf, err := openLogFile(fsys, filepath.Join(dir, segName(seq)), 0, policy, counters)
	if err != nil {
		return nil, err
	}
	lf.flush = flush
	return &wal{dir: dir, fsys: fsys, policy: policy, rotateBytes: rotateBytes, counters: counters, cur: lf, seq: seq}, nil
}

// append journals payloads as one append per segment, rotating where
// one-at-a-time appends would; a new segment's name is synced before
// its first frame. It returns how many payloads were written.
func (w *wal) append(payloads ...[]byte) (int, error) {
	done := 0
	for done < len(payloads) {
		if w.cur.size >= w.rotateBytes && w.cur.size > 0 && !w.cur.broken {
			if err := w.rotateTo(w.seq + 1); err != nil {
				return done, err
			}
		}
		if !w.named {
			if err := w.fsys.SyncDir(w.dir); err != nil {
				return done, err
			}
			w.named = true
		}
		end := done + 1
		for size := w.cur.size + framedSize(payloads[done]); end < len(payloads) && size < w.rotateBytes; end++ {
			size += framedSize(payloads[end])
		}
		if err := w.cur.append(payloads[done:end]...); err != nil {
			return done, err
		}
		done = end
	}
	return done, nil
}

// rotateTo closes the active segment and opens a new one numbered seq.
func (w *wal) rotateTo(seq int) error {
	if err := w.cur.close(); err != nil {
		return err
	}
	lf, err := openLogFile(w.fsys, filepath.Join(w.dir, segName(seq)), 0, w.policy, w.counters)
	if err != nil {
		return err
	}
	lf.flush = w.cur.flush
	w.cur, w.seq, w.named = lf, seq, false
	w.counters.rotations.Add(1)
	return nil
}
