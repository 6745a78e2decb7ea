package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"net/url"
	"path/filepath"
	"slices"
	"strings"

	"entangled/internal/stream"
)

// Session frames share the log with store mutations. A session frame's
// payload is a tag byte — below any byte a JSON text starts with, so it
// never reads as a mutation — then the session name as a uvarint length
// and its bytes, then the tag's body: the park flag as one byte
// (create), a stream.Event's JSON (event), or nothing (drop).
const (
	tagCreate byte = 1 + iota
	tagEvent
	tagDrop
)

// sessionPayload appends a session frame's payload to dst.
func sessionPayload(dst []byte, tag byte, name string, body []byte) []byte {
	dst = binary.AppendUvarint(append(dst, tag), uint64(len(name)))
	return append(append(dst, name...), body...)
}

// parseSession splits a session frame's payload. A malformed one has
// a valid CRC, so it is a writer bug and fails recovery loudly.
func parseSession(payload []byte) (tag byte, name string, body []byte, err error) {
	n, k := binary.Uvarint(payload[1:])
	tag, rest := payload[0], payload[1+max(k, 0):]
	if k <= 0 || n > uint64(len(rest)) {
		return 0, "", nil, fmt.Errorf("persist: session frame with an undecodable name")
	}
	name, body = string(rest[:n]), rest[n:]
	if tag == tagCreate && len(body) != 1 || tag == tagDrop && len(body) != 0 || tag != tagCreate && tag != tagEvent && tag != tagDrop {
		return 0, "", nil, fmt.Errorf("persist: session %q: malformed frame (tag %d, %d body bytes)", name, tag, len(body))
	}
	return tag, name, body, nil
}

func parkByte(park bool) []byte {
	if park {
		return []byte{1}
	}
	return []byte{0}
}

// sessionLives folds session frames, in log order, into each live
// session's history: the payload of its create frame, then its events'.
// A create starts the history afresh and a drop ends it; mutations are
// skipped.
type sessionLives map[string][][]byte

func (s sessionLives) add(payload []byte) error {
	if kindOf(payload) == kindStore {
		return nil
	}
	tag, name, _, err := parseSession(payload)
	if err != nil {
		return err
	}
	switch tag {
	case tagCreate:
		s[name] = [][]byte{bytes.Clone(payload)}
	case tagDrop:
		delete(s, name)
	default:
		life, ok := s[name]
		if !ok {
			return fmt.Errorf("persist: session %q: event before its create frame", name)
		}
		s[name] = append(life, bytes.Clone(payload))
	}
	return nil
}

func (s sessionLives) names() []string { return slices.Sorted(maps.Keys(s)) }

// SessionJournal appends one named session's frames to the node's log.
// The server journals an event after applying it in memory and before
// acking the client, so a replayed log rebuilds exactly the acked
// state. Safe for concurrent use.
type SessionJournal struct {
	b    *Backend
	name string
}

// CreateSessionJournal logs a create frame, which starts the name's
// history afresh, and waits for an fsync whatever the policy. While
// degraded it is refused with ErrDegraded; a create whose frame fails
// queues a drop behind it, so no ghost session survives.
func (b *Backend) CreateSessionJournal(name string, park bool) (*SessionJournal, error) {
	if err := b.appendSession(tagCreate, name, parkByte(park)); err != nil {
		if errors.Is(err, ErrIndeterminate) {
			_ = b.appendSession(tagDrop, name, nil) // degraded: it can only queue
		}
		return nil, err
	}
	return &SessionJournal{b: b, name: name}, nil
}

// Append journals one admitted event under the backend's sync policy.
// The caller has already applied the event in memory, so a failed (or
// degraded-deferred) append returns ErrIndeterminate: the event is
// queued and becomes durable when a probe succeeds, but the ack must
// fail because a crash before that would lose it.
func (j *SessionJournal) Append(ev stream.Event) error {
	body, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	return j.b.appendSession(tagEvent, j.name, body)
}

// Drop logs the session's end — the path for sessions removed on
// purpose (DELETE, idle eviction), which must not come back on restart.
// Like a create it waits for an fsync whatever the policy; a drop that
// fails is queued and returns ErrIndeterminate.
func (j *SessionJournal) Drop() error { return j.b.appendSession(tagDrop, j.name, nil) }

// appendSession puts one session frame on the log. While the backend
// is degraded a create is refused and an event or drop joins the
// pending queue: the caller has already changed its session in memory.
func (b *Backend) appendSession(tag byte, name string, body []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.closed:
		return errClosed
	case tag == tagCreate && b.Degraded():
		return fmt.Errorf("persist: creating session journal %q: %w (cause: %v)", name, ErrDegraded, b.DegradeCause())
	case tag == tagCreate:
		b.journals++
	case tag == tagDrop:
		b.journals--
	}
	b.scratch = sessionPayload(b.scratch[:0], tag, name, body)
	err := ErrIndeterminate
	if b.Degraded() {
		b.pending = append(b.pending, bytes.Clone(b.scratch))
	} else {
		err = b.appendLocked(tag != tagEvent, b.scratch)
	}
	if err != nil {
		return fmt.Errorf("persist: session journal %q: %w", name, err)
	}
	return nil
}

// RecoveredSession is one session the log holds: the admission mode it
// was created with, its admitted events in order, and its journal, so
// the recovered session keeps journaling where it left off.
type RecoveredSession struct {
	Name    string
	Park    bool
	Events  []stream.Event
	Journal *SessionJournal
}

// RecoverSessions hands out, once and sorted by name, the live sessions
// Open found in the log. Callers must Drop the journal of any session
// they decline to rebuild, or it comes back on the next Open.
func (b *Backend) RecoverSessions() ([]RecoveredSession, error) {
	b.mu.Lock()
	lives := b.lives
	b.lives = nil
	b.mu.Unlock()
	out := make([]RecoveredSession, 0, len(lives))
	for _, name := range lives.names() {
		life := lives[name]
		_, _, park, _ := parseSession(life[0])
		rs := RecoveredSession{Name: name, Park: park[0] == 1, Events: make([]stream.Event, len(life)-1), Journal: &SessionJournal{b: b, name: name}}
		for i, p := range life[1:] {
			_, _, body, _ := parseSession(p)
			if err := json.Unmarshal(body, &rs.Events[i]); err != nil {
				return nil, fmt.Errorf("persist: session journal %q: decoding event: %w", name, err)
			}
		}
		out = append(out, rs)
	}
	return out, nil
}

// importSessions moves the layout before the one log —
// sessions/<url-escaped-name>.wal, a JSON meta frame then the events —
// into the log as create and event frames, one synced batch, and only
// then removes the files and directory and syncs the data directory. A
// crash in between repeats the import, whose creates start each history
// afresh. A torn tail is dropped (SessionTornTails); a file without its
// meta frame was never created.
func (b *Backend) importSessions() error {
	dir := filepath.Join(b.dir, "sessions")
	ents, err := b.fs.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var batch [][]byte
	for _, e := range ents {
		escaped, ok := strings.CutSuffix(e.Name(), ".wal")
		if !ok {
			continue
		}
		name, err := url.PathUnescape(escaped)
		if err != nil {
			return fmt.Errorf("persist: session journal %q: undecodable name", escaped)
		}
		first := len(batch)
		_, _, err = replayFile(b.fs, filepath.Join(dir, e.Name()), func(p []byte) error {
			if len(batch) > first {
				batch = append(batch, sessionPayload(nil, tagEvent, name, p))
				return nil
			}
			var meta struct {
				Park bool `json:"park"`
			}
			if err := json.Unmarshal(p, &meta); err != nil {
				return fmt.Errorf("persist: session journal %q: decoding meta: %w", name, err)
			}
			batch = append(batch, sessionPayload(nil, tagCreate, name, parkByte(meta.Park)))
			return nil
		})
		if _, torn := err.(*CorruptError); torn {
			b.rec.SessionTornTails++
		} else if err != nil {
			return err
		}
	}
	if _, err = b.wal.append(batch...); err == nil {
		err = b.wal.sync()
	}
	if err != nil {
		return err // the files stay for the next Open
	}
	b.sinceSnap += framedSize(batch...)
	for _, p := range batch {
		_ = b.lives.add(p) // well formed: built above
	}
	for _, e := range ents {
		err = errors.Join(err, b.fs.Remove(filepath.Join(dir, e.Name())))
	}
	if err = errors.Join(err, b.fs.Remove(dir)); err != nil {
		return err
	}
	return b.fs.SyncDir(b.dir)
}
