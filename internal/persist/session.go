package persist

import (
	"encoding/json"
	"fmt"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"entangled/internal/stream"
)

// sessionMeta is a journal's first frame: enough to rebuild the
// session with the admission mode it was created with.
type sessionMeta struct {
	Name string `json:"name"`
	Park bool   `json:"park,omitempty"`
}

// SessionJournal is one named session's durable event log: a meta
// frame, then every admitted stream.Event in admission order. The
// server journals an event after applying it in memory and before
// acking the client, so a replayed journal rebuilds exactly the acked
// state. Safe for concurrent use.
//
// While the backend is degraded, appended events queue on a pending
// list in admission order and the ack fails with ErrIndeterminate;
// Probe flushes the queue before lifting the degradation, so the
// on-disk journal order always matches the in-memory apply order.
type SessionJournal struct {
	b    *Backend
	name string
	path string

	mu      sync.Mutex
	lf      *logFile
	pending [][]byte
	closed  bool
}

// journalPath escapes the session name into a filename (names come
// from URLs and may hold separators).
func (b *Backend) journalPath(name string) string {
	return filepath.Join(b.sessionsDir, url.PathEscape(name)+".wal")
}

// CreateSessionJournal starts a journal for a newly created session,
// truncating any leftover file of the same name (the registry
// guarantees live names are unique; a leftover journal here means the
// old session was never recovered). The meta frame is synced
// immediately regardless of policy, so the session's existence is
// durable before its first event — including the directory entry: a
// failed dir sync fails the create.
func (b *Backend) CreateSessionJournal(name string, park bool) (*SessionJournal, error) {
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return nil, errClosed
	}
	if b.degraded.Load() {
		return nil, fmt.Errorf("persist: creating session journal %q: %w", name, ErrDegraded)
	}
	path := b.journalPath(name)
	b.fs.Remove(path)
	lf, err := openLogFile(b.fs, path, 0, b.opts.Sync, &b.sessionCtr)
	if err != nil {
		return nil, err
	}
	meta, _ := json.Marshal(sessionMeta{Name: name, Park: park})
	err = lf.append(meta)
	if err == nil {
		err = lf.sync()
	}
	if err == nil {
		err = b.fs.SyncDir(b.sessionsDir)
	}
	if err != nil {
		lf.abort()
		b.fs.Remove(path)
		b.markDegraded(err)
		return nil, err
	}
	return b.register(name, path, lf), nil
}

// register opens the journal over lf in the backend's open set; lf's
// interval timer syncs through Sync, under the journal's lock.
func (b *Backend) register(name, path string, lf *logFile) *SessionJournal {
	j := &SessionJournal{b: b, name: name, path: path, lf: lf}
	lf.flush = func() { _ = j.Sync() } // a failed sync degrades the backend
	b.smu.Lock()
	b.sessions[name] = j
	b.smu.Unlock()
	return j
}

// Name returns the session name the journal belongs to.
func (j *SessionJournal) Name() string { return j.name }

// Append journals one admitted event under the backend's sync policy.
// The caller has already applied the event in memory, so a failed (or
// degraded-deferred) append returns ErrIndeterminate: the event is
// queued and becomes durable when a probe succeeds, but the ack must
// fail because a crash before that would lose it.
func (j *SessionJournal) Append(ev stream.Event) error {
	payload, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("persist: session journal %q is closed", j.name)
	}
	if j.b.degraded.Load() || len(j.pending) > 0 {
		// Queue in admission order behind whatever is already pending,
		// so the flush preserves the journal's replay order.
		j.pending = append(j.pending, payload)
		return fmt.Errorf("persist: session journal %q: %w", j.name, ErrIndeterminate)
	}
	if err := j.lf.append(payload); err != nil {
		j.pending = append(j.pending, payload)
		j.b.markDegraded(err)
		return fmt.Errorf("persist: session journal %q: %w: %w", j.name, ErrIndeterminate, err)
	}
	return nil
}

// flushPending repairs the log and writes queued payloads in order as
// one append; called from Backend.Probe after the scratch-file probe
// succeeds.
func (j *SessionJournal) flushPending() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		// A closed journal's pending events were never acked; dropping
		// them on drain loses nothing the client was promised.
		return nil
	}
	if err := j.lf.repair(); err != nil {
		return err
	}
	if err := j.lf.append(j.pending...); err != nil {
		return err
	}
	j.pending = nil
	return j.lf.sync()
}

// pendingLen reports queued-but-not-durable payloads (for metrics).
func (j *SessionJournal) pendingLen() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pending)
}

// Sync flushes the journal to stable storage.
func (j *SessionJournal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	if err := j.lf.sync(); err != nil {
		j.b.markDegraded(err)
		return err
	}
	return nil
}

// Close syncs and closes the journal, keeping the file for recovery —
// the drain path.
func (j *SessionJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	j.unregister()
	return j.lf.close()
}

// Drop closes the journal and deletes its file — the path for sessions
// removed on purpose (DELETE, idle eviction), which must not resurrect
// on restart. The directory sync after the unlink is part of the
// contract: its error propagates, it is not best-effort.
func (j *SessionJournal) Drop() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.closed {
		j.closed = true
		j.unregister()
		j.lf.abort()
	}
	err := j.b.fs.Remove(j.path)
	if serr := j.b.fs.SyncDir(j.b.sessionsDir); err == nil {
		err = serr
	}
	return err
}

// abort closes the handle without syncing (crash simulation).
func (j *SessionJournal) abort() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closed = true
	j.unregister()
	j.lf.abort()
}

// unregister drops the journal from the backend's open set. Called
// with j.mu held; takes b.smu (never the reverse order anywhere).
func (j *SessionJournal) unregister() {
	j.b.smu.Lock()
	if j.b.sessions[j.name] == j {
		delete(j.b.sessions, j.name)
	}
	j.b.smu.Unlock()
}

// RecoveredSession is one session journal's replayable content: the
// admission mode it was created with, its admitted events in order,
// and the journal reopened for appending so the recovered session
// keeps journaling where it left off.
type RecoveredSession struct {
	Name    string
	Park    bool
	Events  []stream.Event
	Journal *SessionJournal
}

// RecoverSessions replays every session journal in the data directory,
// sorted by name. A torn tail on a journal is truncated (counted in
// RecoveryStats.SessionTornTails); a journal whose meta frame never
// made it to disk is removed — its session was never durably created.
// Each returned journal is registered open; callers must Close or Drop
// every one (sessions they decline to rebuild included).
func (b *Backend) RecoverSessions() ([]RecoveredSession, error) {
	ents, err := b.fs.ReadDir(b.sessionsDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".wal") {
			names = append(names, strings.TrimSuffix(e.Name(), ".wal"))
		}
	}
	sort.Strings(names)
	var out []RecoveredSession
	for _, escaped := range names {
		name, err := url.PathUnescape(escaped)
		if err != nil {
			return nil, fmt.Errorf("persist: session journal %q: undecodable name", escaped)
		}
		rs, err := b.recoverSession(name)
		if err != nil {
			return nil, err
		}
		if rs != nil {
			out = append(out, *rs)
		}
	}
	b.mu.Lock()
	b.rec.Sessions = len(out)
	b.rec.SessionEvents = 0
	for _, rs := range out {
		b.rec.SessionEvents += len(rs.Events)
	}
	b.mu.Unlock()
	return out, nil
}

// recoverSession replays one journal; returns nil (and removes the
// file) when no durable meta frame exists.
func (b *Backend) recoverSession(name string) (*RecoveredSession, error) {
	path := b.journalPath(name)
	var meta *sessionMeta
	var events []stream.Event
	frames, valid, err := replayFile(b.fs, path, func(payload []byte) error {
		if meta == nil {
			meta = new(sessionMeta)
			if err := json.Unmarshal(payload, meta); err != nil {
				return fmt.Errorf("persist: session journal %q: decoding meta: %w", name, err)
			}
			return nil
		}
		var ev stream.Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return fmt.Errorf("persist: session journal %q: decoding event: %w", name, err)
		}
		events = append(events, ev)
		return nil
	})
	if err != nil {
		if _, torn := err.(*CorruptError); !torn {
			return nil, err
		}
		// A journal is a single file, so its tail is always the last
		// thing written: truncate and carry on.
		if terr := b.fs.Truncate(path, valid); terr != nil {
			return nil, terr
		}
		b.mu.Lock()
		b.rec.SessionTornTails++
		b.mu.Unlock()
	}
	if frames == 0 || meta == nil {
		b.fs.Remove(path)
		return nil, nil
	}
	lf, err := openLogFile(b.fs, path, valid, b.opts.Sync, &b.sessionCtr)
	if err != nil {
		return nil, err
	}
	return &RecoveredSession{Name: name, Park: meta.Park, Events: events, Journal: b.register(name, path, lf)}, nil
}
