package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"entangled/internal/api"
	"entangled/internal/stream"
)

// eventJournal is the durability hook a session handle writes through:
// persist.SessionJournal satisfies it. Append must be called only after
// the event was applied in memory; Close keeps the journal file for
// recovery (drain), Drop deletes it (deliberate removal).
type eventJournal interface {
	Append(ev stream.Event) error
	Sync() error
	Close() error
	Drop() error
}

// sessionOp is one unit of serialized session work: an event posted to
// the session's mailbox, answered on reply.
type sessionOp struct {
	ev    stream.Event
	reply chan sessionReply // buffered(1): the loop never blocks on it
}

type sessionReply struct {
	up  stream.Update
	err error
}

// sessionHandle owns one named stream.Session: a dedicated goroutine
// serializes its events through a bounded mailbox, so concurrent
// clients of the same session observe a total order with backpressure
// (a full mailbox rejects instead of queueing unboundedly). Reads
// (status, metrics) go straight to the Session, which has its own lock
// — they need no ordering against writes.
type sessionHandle struct {
	name    string
	sess    *stream.Session
	journal eventJournal // nil when the server runs without durability
	// notify observes every applied update (called from the session
	// loop, after journaling, before the reply). The server points it at
	// the push hub so parked arrivals admitted by a departure reach
	// subscribed binary connections.
	notify func(name string, up stream.Update)

	mailbox  chan sessionOp
	stop     chan struct{} // closed on delete/evict/server drain
	done     chan struct{} // closed when the loop exits
	stopOnce sync.Once
	lastUsed atomic.Int64 // unix nanos of the last client touch
}

func newSessionHandle(name string, sess *stream.Session, journal eventJournal, mailboxSize int, notify func(string, stream.Update)) *sessionHandle {
	h := &sessionHandle{
		name:    name,
		sess:    sess,
		journal: journal,
		notify:  notify,
		mailbox: make(chan sessionOp, mailboxSize),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	h.touch()
	go h.loop()
	return h
}

func (h *sessionHandle) touch() { h.lastUsed.Store(time.Now().UnixNano()) }

// loop serializes the session's events. On stop it drains the ops that
// made it into the mailbox — an admitted event always executes (the
// graceful-drain contract the stream layer established: events are
// atomic, so the drain leaves no partial coordination state) — and
// exits.
func (h *sessionHandle) loop() {
	defer close(h.done)
	for {
		select {
		case op := <-h.mailbox:
			h.exec(op)
		case <-h.stop:
			for {
				select {
				case op := <-h.mailbox:
					h.exec(op)
				default:
					return
				}
			}
		}
	}
}

// exec applies one event and, when it changed the session (admitted,
// or parked for retry — parked arrivals are replayed too, so a
// recovered session re-parks them), journals it BEFORE replying: the
// ack implies the event is in the journal, flushed per the backend's
// sync policy. A journal failure is reported to the caller — the
// in-memory state holds the event but its durability is indeterminate.
func (h *sessionHandle) exec(op sessionOp) {
	up, err := h.sess.Apply(op.ev)
	if h.journal != nil && (up.Admitted || up.Parked) {
		if jerr := h.journal.Append(op.ev); jerr != nil && err == nil {
			err = fmt.Errorf("server: journaling event for session %s: %w", h.name, jerr)
		}
	}
	if err == nil {
		h.notify(h.name, up)
	}
	op.reply <- sessionReply{up: up, err: err}
}

// post submits one event and waits for its update. A full mailbox
// rejects immediately (backpressure, HTTP 429); a stopped session
// rejects with api.ErrSessionClosed. An op that was admitted right as
// the drain finished gets api.ErrSessionClosed from the done branch —
// it never executed.
func (h *sessionHandle) post(ctx context.Context, ev stream.Event) (stream.Update, error) {
	h.touch()
	op := sessionOp{ev: ev, reply: make(chan sessionReply, 1)}
	select {
	case <-h.stop:
		return stream.Update{}, api.ErrSessionClosed
	default:
	}
	select {
	case h.mailbox <- op:
	case <-h.stop:
		return stream.Update{}, api.ErrSessionClosed
	default:
		return stream.Update{}, api.ErrMailboxFull
	}
	select {
	case r := <-op.reply:
		h.touch()
		return r.up, r.err
	case <-h.done:
		// done and reply can become ready together (the drain executed
		// this op just before the loop exited); an op that DID execute
		// must never report api.ErrSessionClosed, so re-check the reply.
		select {
		case r := <-op.reply:
			return r.up, r.err
		default:
		}
		return stream.Update{}, api.ErrSessionClosed
	case <-ctx.Done():
		return stream.Update{}, ctx.Err()
	}
}

// close stops the handle's loop after it drains admitted work.
func (h *sessionHandle) close() {
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}

// registry is the concurrent session registry: named handles over one
// shared store, created on demand, evicted after idleTimeout without a
// client touch, torn down together on server drain.
type registry struct {
	newSession  func(parkUnsafe bool) *stream.Session
	newJournal  func(name string, parkUnsafe bool) (eventJournal, error) // nil: no durability
	notify      func(name string, up stream.Update)                      // every handle's notify hook
	onDrop      func(name string)                                        // observes a removed or evicted session
	skipEvict   func() bool                                              // nil: never skip a janitor pass
	nameOK      func(name string) bool                                   // nil: any generated name is fine
	mailboxSize int
	idleTimeout time.Duration

	mu       sync.Mutex
	handles  map[string]*sessionHandle
	draining bool
	nextAuto int64

	created atomic.Int64
	evicted atomic.Int64

	janitorStop chan struct{}
	janitorDone chan struct{}
}

func newRegistry(newSession func(bool) *stream.Session, mailboxSize int, idleTimeout time.Duration,
	notify func(string, stream.Update), onDrop func(string)) *registry {
	r := &registry{
		newSession:  newSession,
		notify:      notify,
		onDrop:      onDrop,
		mailboxSize: mailboxSize,
		idleTimeout: idleTimeout,
		handles:     map[string]*sessionHandle{},
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go r.janitor()
	return r
}

// create registers a new named session. An empty name asks for a
// generated one ("s1", "s2", ...; generated names skip taken ones).
func (r *registry) create(name string, parkUnsafe bool) (*sessionHandle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return nil, api.ErrDraining
	}
	if name == "" {
		// Generated names skip taken ones and, on a cluster node, names
		// the ring places elsewhere (nameOK), so a new session always
		// starts life on its owner.
		for {
			r.nextAuto++
			name = fmt.Sprintf("s%d", r.nextAuto)
			if _, taken := r.handles[name]; !taken && (r.nameOK == nil || r.nameOK(name)) {
				break
			}
		}
	} else if _, taken := r.handles[name]; taken {
		return nil, fmt.Errorf("%w: %s", api.ErrSessionExists, name)
	}
	var journal eventJournal
	if r.newJournal != nil {
		j, err := r.newJournal(name, parkUnsafe)
		if err != nil {
			return nil, fmt.Errorf("server: creating session journal: %w", err)
		}
		journal = j
	}
	h := newSessionHandle(name, r.newSession(parkUnsafe), journal, r.mailboxSize, r.notify)
	r.handles[name] = h
	r.created.Add(1)
	return h, nil
}

// adopt registers a handle over an already rebuilt session (recovery):
// the journal is the recovered one, reopened for appending.
func (r *registry) adopt(name string, sess *stream.Session, journal eventJournal) (*sessionHandle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return nil, api.ErrDraining
	}
	if _, taken := r.handles[name]; taken {
		return nil, fmt.Errorf("%w: %s", api.ErrSessionExists, name)
	}
	h := newSessionHandle(name, sess, journal, r.mailboxSize, r.notify)
	r.handles[name] = h
	r.created.Add(1)
	return h, nil
}

func (r *registry) get(name string) (*sessionHandle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.handles[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", api.ErrSessionNotFound, name)
	}
	return h, nil
}

// remove deregisters and stops one session; it blocks until the
// session's loop has drained.
func (r *registry) remove(name string) error {
	r.mu.Lock()
	h, ok := r.handles[name]
	if ok {
		delete(r.handles, name)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", api.ErrSessionNotFound, name)
	}
	h.close()
	// A deliberately removed session must not resurrect on restart.
	if h.journal != nil {
		h.journal.Drop()
	}
	r.onDrop(name)
	return nil
}

// snapshot returns the live handles.
func (r *registry) snapshot() []*sessionHandle {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*sessionHandle, 0, len(r.handles))
	for _, h := range r.handles {
		out = append(out, h)
	}
	return out
}

func (r *registry) open() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.handles)
}

// janitor evicts sessions idle past the timeout. It scans at a quarter
// of the timeout so eviction lags idleness by at most ~1.25x.
func (r *registry) janitor() {
	defer close(r.janitorDone)
	if r.idleTimeout <= 0 {
		<-r.janitorStop
		return
	}
	tick := r.idleTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-r.janitorStop:
			return
		case now := <-t.C:
			// Pause eviction when asked (the server sets this to the
			// backend's degraded check): dropping a journal needs the
			// filesystem, and a lost drop resurrects the session later.
			if r.skipEvict != nil && r.skipEvict() {
				continue
			}
			cutoff := now.Add(-r.idleTimeout).UnixNano()
			r.mu.Lock()
			var idle []*sessionHandle
			for name, h := range r.handles {
				if h.lastUsed.Load() < cutoff {
					idle = append(idle, h)
					delete(r.handles, name)
				}
			}
			r.mu.Unlock()
			for _, h := range idle {
				h.close()
				// Eviction is removal: the journal goes too.
				if h.journal != nil {
					h.journal.Drop()
				}
				r.onDrop(h.name)
				r.evicted.Add(1)
			}
		}
	}
}

// close drains the registry: no new sessions, janitor stopped, every
// session's mailbox drained and its loop exited.
func (r *registry) close() {
	r.mu.Lock()
	r.draining = true
	handles := make([]*sessionHandle, 0, len(r.handles))
	for name, h := range r.handles {
		handles = append(handles, h)
		delete(r.handles, name)
	}
	r.mu.Unlock()
	close(r.janitorStop)
	<-r.janitorDone
	for _, h := range handles {
		h.close()
		// A drain keeps the journal: the session comes back on restart
		// with every admitted event intact. Close syncs it.
		if h.journal != nil {
			h.journal.Close()
		}
	}
}
