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
// the event was applied in memory; Drop ends the session in the log
// (deliberate removal). A drain needs neither: the log is the backend's
// to sync.
type eventJournal interface {
	Append(ev stream.Event) error
	Drop() error
}

// sessionHandle owns one named stream.Session. Its events take turns:
// the goroutine posting an event takes the session's turn, serves the
// event itself and hands the turn on, so concurrent clients of one
// session observe a total order, and a bound on how many may wait
// turns backlog into a rejection. Reads (status, metrics) go straight
// to the Session, which has its own lock — they need no ordering
// against writes.
type sessionHandle struct {
	name    string
	sess    *stream.Session
	journal eventJournal // nil when the server runs without durability
	// notify observes every applied update (called holding the turn,
	// after journaling, before the reply). The server points it at the
	// push hub so parked arrivals admitted by a departure reach
	// subscribed binary connections.
	notify func(name string, up stream.Update)

	// turn is one slot: whoever fills it serves the session. A channel,
	// not a mutex, because blocked senders are served in arrival order
	// and a send can give up when its context ends.
	turn     chan struct{}
	waiting  atomic.Int64 // events holding or awaiting the turn
	bound    int64        // the most that may: one served, the mailbox waiting
	closed   bool         // set by close, read holding the turn
	lastUsed atomic.Int64 // unix nanos of the last client touch
}

func (h *sessionHandle) touch() { h.lastUsed.Store(time.Now().UnixNano()) }

// post serves one event in its turn and returns its update. With one
// event served and the mailbox's worth waiting, it rejects at once
// (backpressure, HTTP 429). A context that ends before the event gets
// the turn returns its error, and the event is never applied; a closed
// session rejects with api.ErrSessionClosed.
//
// An event that changed the session (admitted, or parked for retry —
// parked arrivals are replayed too, so a recovered session re-parks
// them) is journaled BEFORE the reply: the ack implies the event is in
// the journal, flushed per the backend's sync policy. A journal failure
// is reported to the caller — the in-memory state holds the event but
// its durability is indeterminate.
func (h *sessionHandle) post(ctx context.Context, ev stream.Event) (stream.Update, error) {
	h.touch()
	n := h.waiting.Add(1)
	defer h.waiting.Add(-1)
	if n > h.bound {
		return stream.Update{}, api.ErrMailboxFull
	}
	select {
	case h.turn <- struct{}{}:
	case <-ctx.Done():
		return stream.Update{}, ctx.Err()
	}
	defer func() { <-h.turn }()
	if h.closed {
		return stream.Update{}, api.ErrSessionClosed
	}
	up, err := h.sess.Apply(ev)
	if h.journal != nil && (up.Admitted || up.Parked) {
		if jerr := h.journal.Append(ev); jerr != nil && err == nil {
			err = fmt.Errorf("server: journaling event for session %s: %w", h.name, jerr)
		}
	}
	if err == nil {
		h.notify(h.name, up)
	}
	h.touch()
	return up, err
}

// close takes its turn behind the events already waiting, so every one
// of them is served (events are atomic: the drain leaves no partial
// coordination state), and closes the session to the events after.
func (h *sessionHandle) close() {
	h.turn <- struct{}{}
	h.closed = true
	<-h.turn
}

// registry is the concurrent session registry: named handles over one
// shared store, created on demand, evicted after idleTimeout without a
// client touch, torn down together on server drain.
type registry struct {
	newSession func(parkUnsafe bool) *stream.Session
	newJournal func(name string, parkUnsafe bool) (eventJournal, error) // nil: no durability
	notify     func(name string, up stream.Update)                      // every handle's notify hook
	onDrop     func(name string)                                        // observes a removed or evicted session
	skipEvict  func() bool                                              // nil: never skip a janitor pass
	nameOK     func(name string) bool                                   // nil: any generated name is fine

	mu       sync.Mutex
	handles  map[string]*sessionHandle
	dropping map[string]bool // names removed from handles whose drop is not logged yet
	dropped  sync.Cond       // on mu: a drop was logged
	draining bool
	nextAuto int64

	created atomic.Int64
	evicted atomic.Int64

	janitorStop chan struct{}
	janitorDone chan struct{}
}

func newRegistry(newSession func(bool) *stream.Session, notify func(string, stream.Update), onDrop func(string)) *registry {
	r := &registry{
		newSession:  newSession,
		notify:      notify,
		onDrop:      onDrop,
		handles:     map[string]*sessionHandle{},
		dropping:    map[string]bool{},
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	r.dropped.L = &r.mu
	go r.janitor()
	return r
}

// create registers a new named session. An empty name asks for a
// generated one ("s1", "s2", ...; generated names skip taken ones). A
// name whose removal is still being logged waits for its drop frame, so
// the log never reads the new life's create before the old life's drop.
func (r *registry) create(name string, parkUnsafe bool) (*sessionHandle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name != "" && r.dropping[name] {
		r.dropped.Wait()
	}
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
			if _, taken := r.handles[name]; !taken && !r.dropping[name] && (r.nameOK == nil || r.nameOK(name)) {
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
	return r.add(name, r.newSession(parkUnsafe), journal), nil
}

// adopt registers a handle over a session rebuilt from the log, with
// its recovered journal. Recovery runs before the server serves, and
// the log holds each name once, so the name is free.
func (r *registry) adopt(name string, sess *stream.Session, journal eventJournal) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.add(name, sess, journal)
}

// add registers a new handle under a free name; callers hold r.mu.
func (r *registry) add(name string, sess *stream.Session, journal eventJournal) *sessionHandle {
	h := &sessionHandle{name: name, sess: sess, journal: journal, notify: r.notify,
		turn: make(chan struct{}, 1), bound: 1 + mailboxSize}
	h.touch()
	r.handles[name] = h
	r.created.Add(1)
	return h
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

// remove deregisters and closes one session; it blocks until the
// events waiting for its turn are served. A drop the log did not take
// fails the removal with its error (ack_indeterminate): the session is
// gone from memory, and its drop frame waits in the backend's pending
// queue.
func (r *registry) remove(name string) error {
	r.mu.Lock()
	h, ok := r.handles[name]
	if ok {
		delete(r.handles, name)
		r.dropping[name] = true
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", api.ErrSessionNotFound, name)
	}
	return r.drop(h)
}

// drop closes a removed handle and ends its session in the log, so it
// does not come back on restart; only then is its name free again.
func (r *registry) drop(h *sessionHandle) error {
	h.close()
	var err error
	if h.journal != nil {
		err = h.journal.Drop()
	}
	r.onDrop(h.name)
	r.mu.Lock()
	delete(r.dropping, h.name)
	r.dropped.Broadcast()
	r.mu.Unlock()
	return err
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

// janitor evicts sessions idle past idleTimeout. It scans at a quarter
// of the timeout so eviction lags idleness by at most ~1.25x.
func (r *registry) janitor() {
	defer close(r.janitorDone)
	t := time.NewTicker(idleTimeout / 4)
	defer t.Stop()
	for {
		select {
		case <-r.janitorStop:
			return
		case now := <-t.C:
			r.evictIdle(now)
		}
	}
}

// evictIdle is one janitor pass: it evicts every session with no
// client touch since idleTimeout before now.
func (r *registry) evictIdle(now time.Time) {
	// Pause eviction when asked (the server sets this to the backend's
	// degraded check): a drop needs the log, and a lost drop resurrects
	// the session later.
	if r.skipEvict != nil && r.skipEvict() {
		return
	}
	cutoff := now.Add(-idleTimeout).UnixNano()
	r.mu.Lock()
	var idle []*sessionHandle
	for name, h := range r.handles {
		if h.lastUsed.Load() < cutoff {
			idle = append(idle, h)
			delete(r.handles, name)
			r.dropping[name] = true
		}
	}
	r.mu.Unlock()
	for _, h := range idle {
		// Eviction is removal. No client waits on it, so a failed drop
		// is left to the backend: it degrades, and the drop frame waits
		// in its pending queue for the next probe.
		_ = r.drop(h)
		r.evicted.Add(1)
	}
}

// close drains the registry: no new sessions, janitor stopped, every
// session closed once the events waiting for its turn are served.
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
	// A drain keeps every session in the log: it comes back on restart
	// with every admitted event intact.
	for _, h := range handles {
		h.close()
	}
}
