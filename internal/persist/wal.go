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

// Frame kinds, indexing the log's counters: a session frame's payload
// starts with a tag byte (session.go) that no JSON text starts with;
// every other frame is a store mutation's JSON object.
const (
	kindStore = iota
	kindSession
)

func kindOf(payload []byte) int {
	if len(payload) > 0 && payload[0] <= tagDrop {
		return kindSession
	}
	return kindStore
}

// walCounters counts one frame kind's share of the log: appends counts
// frames (a batch of n adds n), bytes their framed size, and syncs the
// fsyncs that covered at least one of them.
type walCounters struct {
	appends atomic.Int64
	bytes   atomic.Int64
	syncs   atomic.Int64
}

// wal is the node's one log: numbered segments in dir, rotated past
// rotateBytes, holding store and session frames in the order written.
// Callers hold the Backend mutex; only a group commit's fsync runs
// outside it. Positions count bytes framed since Open: every byte below
// synced is durable or known lost (lost keeps the ranges failures lost
// while appends wait in commit), and under SyncAlways buf keeps the
// frames past synced so a failure can queue their payloads again (under
// a laxer policy, only those of an append that waits for its fsync). A
// failed write or sync marks the log broken until repair reopens the
// segment and truncates it to size.
type wal struct {
	dir         string
	fsys        fault.FS
	policy      SyncPolicy
	rotateBytes int64

	f        fault.File // the active segment
	seq      int
	size     int64
	named    bool // the active segment's directory entry is synced
	broken   bool
	lastSync time.Time
	timer    *time.Timer
	flush    func() // the owner's locked sync, run by the interval timer

	buf             []byte
	written, synced int64
	lost            []lostRange
	waiting         int   // appends in commit
	syncing         bool  // a group commit's fsync is in flight
	awaited         bool  // the frames being written wait for an fsync: buf keeps them under any policy
	repaired        bool  // repair truncated the segment: the next sync fsyncs it
	kinds           uint8 // bit k: a kind-k frame was written since the last fsync began

	ctr       [2]walCounters
	rotations atomic.Int64
}

// open makes segment seq the active one, appending at size; anything
// past size is truncated away.
func (w *wal) open(seq int, size int64) error {
	f, err := w.fsys.OpenFile(w.path(seq), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if err = f.Truncate(size); err == nil {
		_, err = f.Seek(size, 0)
	}
	if err != nil {
		f.Close()
		return err
	}
	w.f, w.seq, w.size = f, seq, size
	return nil
}

func (w *wal) path(seq int) string { return filepath.Join(w.dir, segName(seq)) }

// append writes payloads as one framed write per segment, splitting
// where one-at-a-time appends would rotate; a new segment's name is
// synced before its first frame. It returns how many payloads were
// written.
func (w *wal) append(payloads ...[]byte) (int, error) {
	done := 0
	for done < len(payloads) {
		if w.broken {
			return done, fmt.Errorf("persist: %s is broken and needs repair", w.path(w.seq))
		}
		if w.size >= w.rotateBytes && w.size > 0 {
			if err := w.rotate(); err != nil {
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
		for size := w.size + framedSize(payloads[done]); end < len(payloads) && size < w.rotateBytes; end++ {
			size += framedSize(payloads[end])
		}
		if err := w.write(payloads[done:end]); err != nil {
			return done, err
		}
		done = end
	}
	return done, nil
}

// write frames payloads into one write(2) and applies an interval
// policy; under SyncAlways the caller's commit syncs. A sync that fails
// here rolls the segment's end back past these frames, so repair
// truncates them and the caller's retry appends them once.
func (w *wal) write(payloads [][]byte) error {
	start := len(w.buf)
	for _, p := range payloads {
		w.buf = frame.Append(w.buf, p)
	}
	n := int64(len(w.buf) - start)
	if _, err := w.f.Write(w.buf[start:]); err != nil {
		w.buf, w.broken = w.buf[:start], true
		return fmt.Errorf("persist: appending to %s: %w", w.path(w.seq), err)
	}
	if w.policy != SyncAlways && !w.awaited {
		w.shed(len(w.buf)) // acked now: nothing to keep
	}
	w.size += n
	w.written += n
	for _, p := range payloads {
		k := kindOf(p)
		w.ctr[k].appends.Add(1)
		w.ctr[k].bytes.Add(framedSize(p))
		w.kinds |= 1 << k
	}
	switch {
	case w.policy.Interval > 0 && time.Since(w.lastSync) >= w.policy.Interval:
		if err := w.sync(); err != nil {
			w.buf, w.size = w.buf[:min(start, len(w.buf))], w.size-n
			return err
		}
	case w.policy.Interval > 0 && w.timer == nil:
		w.timer = time.AfterFunc(w.policy.Interval-time.Since(w.lastSync), w.flush)
	}
	return nil
}

// sync fsyncs the active segment unless everything written is already
// settled. A failed fsync marks the log broken: retrying it on the same
// handle can falsely succeed (the kernel may have dropped the dirty
// pages), so repair reopens the file instead.
func (w *wal) sync() error {
	w.disarm()
	if w.written == w.synced && !w.repaired {
		return nil
	}
	kinds := w.kinds
	w.kinds, w.repaired = 0, false
	if err := w.f.Sync(); err != nil {
		w.broken = true
		return fmt.Errorf("persist: syncing %s: %w", w.path(w.seq), err)
	}
	w.settle(w.written, kinds)
	return nil
}

// settle records an fsync that covered the log up to target and every
// frame kind in kinds.
func (w *wal) settle(target int64, kinds uint8) {
	for k := range w.ctr {
		if kinds&(1<<k) != 0 {
			w.ctr[k].syncs.Add(1)
		}
	}
	w.lastSync = time.Now()
	if d := target - w.synced; d > 0 {
		// buf ends at written: under a laxer policy it may hold less.
		w.shed(int(min(d, int64(len(w.buf)))))
		w.synced = target
	}
}

// shed drops buf's first k bytes, frames it need not keep, and lets go
// of a large empty buffer: a bulk load leaves none behind.
func (w *wal) shed(k int) {
	w.buf = w.buf[:copy(w.buf, w.buf[k:])]
	if len(w.buf) == 0 && cap(w.buf) > 16<<10 {
		w.buf = nil
	}
}

// lostRange is the log positions (from, to] a failure lost.
type lostRange struct {
	from, to int64
	err      error
}

// fail settles every position written so far as lost to err.
func (w *wal) fail(err error) {
	if w.written > w.synced {
		w.lost = append(w.lost, lostRange{w.synced, w.written, err})
	}
	w.synced, w.kinds = w.written, 0
}

// rotate syncs and closes the active segment and opens the next one.
func (w *wal) rotate() error {
	if err := w.sync(); err != nil {
		return err
	}
	err := w.f.Close()
	if err == nil {
		err = w.open(w.seq+1, 0)
	}
	if err != nil {
		w.broken = true // repair reopens the segment
		return err
	}
	w.named = false
	w.rotations.Add(1)
	return nil
}

// repair recovers a broken log: reopen the segment by path (the old
// handle may be poisoned or closed) and truncate it to size. The next
// sync fsyncs whatever happens, so the truncation is durable. A no-op
// on a healthy log.
func (w *wal) repair() error {
	if !w.broken {
		return nil
	}
	w.f.Close()
	if err := w.open(w.seq, w.size); err != nil {
		return err
	}
	w.broken, w.repaired = false, true
	return nil
}

// close closes the active segment without syncing it.
func (w *wal) close() error {
	w.disarm()
	return w.f.Close()
}

// disarm stops the interval timer: a sync or close makes it moot.
func (w *wal) disarm() {
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
}

// framedSize is the log bytes the payloads take once framed.
func framedSize(payloads ...[]byte) (n int64) {
	for _, p := range payloads {
		n += frame.HeaderSize + int64(len(p))
	}
	return n
}

// segName/snapName build the numbered file names of the log.
func segName(seq int) string  { return fmt.Sprintf("wal-%06d.log", seq) }
func snapName(seq int) string { return fmt.Sprintf("snapshot-%06d.snap", seq) }

// scanStoreDir lists the store directory's segment and snapshot
// sequence numbers, each ascending.
func scanStoreDir(fsys fault.FS, dir string) (segs, snaps []int, err error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &n); err == nil && n >= 0 {
			segs = append(segs, n)
		} else if _, err := fmt.Sscanf(e.Name(), "snapshot-%d.snap", &n); err == nil && n >= 0 {
			snaps = append(snaps, n)
		}
	}
	sort.Ints(segs)
	sort.Ints(snaps)
	return segs, snaps, nil
}
