package stream

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"entangled/internal/coord"
	"entangled/internal/db"
	"entangled/internal/eq"
)

// ErrDuplicateID is returned by Join when a live query with the same ID
// is already in the session.
var ErrDuplicateID = errors.New("stream: duplicate query ID")

// ErrUnknownID is returned by Leave for an ID with no live query.
var ErrUnknownID = errors.New("stream: unknown query ID")

// DefaultCompactAfter is a session's slot-compaction threshold: once 64
// dead slots (departed queries) have accumulated, live queries are
// renumbered into dense slots, so per-event graph work stays O(live
// queries) instead of O(slots ever handed out). Compaction is an
// in-place renumbering — O(live queries) of integer work, no database
// query — amortised over them, and it re-solves nothing (queries are
// named by admission serial, not by slot), so no Update, Status or
// total shows whether or when it happened: see
// coord.(*Incremental).Compact.
const DefaultCompactAfter = 64

// EventKind discriminates stream events.
type EventKind uint8

const (
	// JoinEvent carries an arriving query.
	JoinEvent EventKind = iota
	// LeaveEvent names a departing query by ID.
	LeaveEvent
)

// Event is one unit of streaming input: a query joining the session or
// a previously joined query leaving it.
type Event struct {
	Kind  EventKind
	Query eq.Query // Join: the arriving query
	ID    string   // Leave: the departing query's ID
}

// Update reports the outcome of one processed event.
type Update struct {
	// Seq numbers events in processing order, starting at 1.
	Seq int
	// Event is the input that produced this update.
	Event Event
	// Admitted is true when the event changed the session (a join was
	// accepted, or a leave found its query).
	Admitted bool
	// Parked is true when an unsafe arrival was parked for retry
	// (Options.ParkUnsafe) instead of rejected.
	Parked bool
	// AdmittedParked lists the IDs of previously parked arrivals this
	// event's retry pass admitted, in arrival order. Only departures
	// populate it (a departure is the only event that can clear the
	// fanout conflict that parked them); the server's push layer turns
	// each entry into a notification to subscribed clients.
	AdmittedParked []string
	// Err carries the rejection or failure; admission rejections wrap
	// coord.ErrUnsafeArrival.
	Err error
	// Stats is the event's incremental cost (zero when not admitted).
	Stats coord.DeltaStats
	// TeamSize is the size of the currently selected coordinating set
	// after the event (0 when nothing grounds).
	TeamSize int
	// Elapsed is the wall-clock time the session spent on the event,
	// including any parked retries it triggered.
	Elapsed time.Duration
}

// Totals accumulates session-lifetime statistics; it is the "totals"
// block of a session's status on the wire (api.Totals).
type Totals struct {
	Events    int   `json:"events"`     // processed events (including rejected ones)
	Joins     int   `json:"joins"`      // admitted arrivals
	Leaves    int   `json:"leaves"`     // admitted departures
	Rejected  int   `json:"rejected"`   // unsafe arrivals rejected
	Parked    int   `json:"parked"`     // unsafe arrivals parked (may later be admitted)
	Dirty     int   `json:"dirty"`      // components re-solved across all events
	Reused    int   `json:"reused"`     // components spliced from cache across all events
	DBQueries int64 `json:"db_queries"` // database queries across all events
}

// Options configures a Session.
type Options struct {
	// ParkUnsafe parks arrivals that would make the set unsafe instead
	// of rejecting them; parked queries are retried after each
	// departure.
	ParkUnsafe bool
	// OnUpdate, when non-nil, observes every processed event (called
	// synchronously from the processing goroutine, in order, with the
	// session lock held — the callback must not call back into the
	// Session, or it will deadlock; read the Update it is handed
	// instead).
	OnUpdate func(Update)
}

// Session is a streaming coordination session over a shared store. All
// methods are safe for concurrent use; events are serialised on an
// internal lock, so updates observe a total order.
type Session struct {
	opts         Options
	compactAfter int // DefaultCompactAfter; tests vary it (export_test.go)

	mu     sync.Mutex
	inc    *coord.Incremental
	byID   map[string]int // query ID -> slot, parkedSlot for a parked one
	parked []eq.Query
	seq    int
	totals Totals

	// counts is what Totals, Size and ParkedCount read: a copy taken at
	// the end of each event and Refresh under its own lock, so they
	// answer while an event waits on the store holding mu.
	countsMu sync.Mutex
	counts   counts
}

type counts struct {
	totals       Totals
	live, parked int
}

// publish copies the counters for the readers; the caller holds mu.
func (s *Session) publish() {
	s.countsMu.Lock()
	s.counts = counts{s.totals, s.inc.Len(), len(s.parked)}
	s.countsMu.Unlock()
}

// readCounts returns the counters as of the last event or Refresh.
func (s *Session) readCounts() counts {
	s.countsMu.Lock()
	defer s.countsMu.Unlock()
	return s.counts
}

// parkedSlot is byID's slot for a parked arrival: its ID is taken, but
// it has no slot to depart.
const parkedSlot = -1

// New opens an empty session over store.
func New(store db.Store, opts Options) *Session {
	return &Session{
		opts:         opts,
		compactAfter: DefaultCompactAfter,
		inc:          coord.NewIncremental(store),
		byID:         map[string]int{},
	}
}

// Join admits one arriving query. The returned update reports the
// event's incremental cost; admission failures (unsafe arrival,
// duplicate ID) come back in both the update and the error.
func (s *Session) Join(q eq.Query) (Update, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.process(Event{Kind: JoinEvent, Query: q})
}

// Leave departs the live query with the given ID. Parked queries are
// retried afterwards: a departure is the only event that can clear the
// fanout conflict that parked them.
func (s *Session) Leave(id string) (Update, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.process(Event{Kind: LeaveEvent, ID: id})
}

// Apply processes one event of either kind.
func (s *Session) Apply(ev Event) (Update, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.process(ev)
}

// process handles one event under the lock.
func (s *Session) process(ev Event) (Update, error) {
	start := time.Now()
	s.seq++
	up := Update{Seq: s.seq, Event: ev}
	switch ev.Kind {
	case JoinEvent:
		s.join(ev.Query, &up)
	case LeaveEvent:
		s.leave(ev.ID, &up)
	default:
		up.Err = fmt.Errorf("stream: unknown event kind %d", ev.Kind)
	}
	if s.inc.Tombstones() >= s.compactAfter {
		s.compact()
	}
	s.totals.Events++
	s.totals.Dirty += up.Stats.Dirty
	s.totals.Reused += up.Stats.Reused
	s.totals.DBQueries += up.Stats.DBQueries
	s.publish()
	up.TeamSize = s.teamSize()
	up.Elapsed = time.Since(start)
	if s.opts.OnUpdate != nil {
		s.opts.OnUpdate(up)
	}
	return up, up.Err
}

// join admits one query into the incremental state, parking unsafe
// arrivals when configured. IDs are unique across live AND parked
// queries — a parked arrival reserves its ID in byID, so a departure's
// retry can never admit a query over (or resurrect one alongside)
// another holder of the same ID.
func (s *Session) join(q eq.Query, up *Update) {
	if slot, dup := s.byID[q.ID]; dup {
		if slot == parkedSlot {
			up.Err = fmt.Errorf("%w: %s is parked", ErrDuplicateID, q.ID)
		} else {
			up.Err = fmt.Errorf("%w: %s", ErrDuplicateID, q.ID)
		}
		return
	}
	slot, d, err := s.admit(q)
	up.Stats = d // exact even on failure: searches count, admission doesn't
	if slot >= 0 {
		// The query is live in the incremental state — record it even
		// when the event's reconcile failed (a store error mid-pass), or
		// it could never be departed and its ID would stay claimable.
		// The next event re-reconciles from scratch, so a failed pass
		// heals rather than poisons.
		s.byID[q.ID] = slot
		s.totals.Joins++
		up.Admitted = true
	}
	if errors.Is(err, coord.ErrUnsafeArrival) {
		if s.opts.ParkUnsafe {
			s.parked = append(s.parked, q)
			s.byID[q.ID] = parkedSlot
			s.totals.Parked++
			up.Parked = true
			return
		}
		s.totals.Rejected++
	}
	up.Err = err
}

// admit adds q to the incremental state. A body that does not fit the
// schema fails every pass that holds it, so no later pass would heal
// it: it is departed at once, and the refusal (slot -1, the ErrSchema
// error) leaves the state as it was. The stats count both passes.
func (s *Session) admit(q eq.Query) (int, coord.DeltaStats, error) {
	slot, d, err := s.inc.Add(q)
	if slot >= 0 && errors.Is(err, db.ErrSchema) {
		dr, _ := s.inc.Remove(slot)
		d.Dirty, d.Reused, d.DBQueries = d.Dirty+dr.Dirty, d.Reused+dr.Reused, d.DBQueries+dr.DBQueries
		slot = -1
	}
	return slot, d, err
}

// leave departs one query and retries parked arrivals. Retry costs are
// folded into the update's stats so per-event metering stays exact.
func (s *Session) leave(id string, up *Update) {
	slot, ok := s.byID[id]
	if !ok || slot == parkedSlot {
		up.Err = fmt.Errorf("%w: %s", ErrUnknownID, id)
		return
	}
	d, err := s.inc.Remove(slot)
	up.Stats = d
	if errors.Is(err, coord.ErrNoQuery) {
		up.Err = err
		return
	}
	// Past the ErrNoQuery check the slot is tombstoned even if the
	// event's reconcile failed, so the ID mapping must go with it; the
	// next event re-reconciles from scratch.
	delete(s.byID, id)
	s.totals.Leaves++
	up.Admitted = true
	if err != nil {
		up.Err = err
		return
	}
	// Departures can clear fanout conflicts: retry parked arrivals in
	// arrival order. A retry that still conflicts stays parked. Retry
	// costs fold into the update's stats so per-event metering stays
	// exact, and non-admission failures surface on the update. An
	// admitted retry's slot replaces its parkedSlot in byID; one that
	// does not fit the schema is dropped (admit).
	still := s.parked[:0]
	for _, q := range s.parked {
		slot, dq, err := s.admit(q)
		up.Stats.Dirty += dq.Dirty
		up.Stats.Reused += dq.Reused
		up.Stats.DBQueries += dq.DBQueries
		if slot >= 0 {
			// Committed — map it even if the pass itself failed, like
			// join does, so the query stays removable.
			s.byID[q.ID] = slot
			s.totals.Joins++
			up.AdmittedParked = append(up.AdmittedParked, q.ID)
		} else if errors.Is(err, db.ErrSchema) {
			// Refused for good, as a join would be, and not this
			// departure's failure: the ID is free again.
			delete(s.byID, q.ID)
			continue
		} else {
			still = append(still, q)
		}
		if err != nil && !errors.Is(err, coord.ErrUnsafeArrival) && up.Err == nil {
			up.Err = fmt.Errorf("stream: parked retry of %s: %w", q.ID, err)
		}
	}
	s.parked = still
}

// teamSize reads the selected candidate's size without building the
// full Result.
func (s *Session) teamSize() int { return s.inc.TeamSize() }

// compact renumbers live queries into dense slots and remaps the ID
// index accordingly; a parked ID has no slot to remap. It cannot fail
// and costs no database query, so no update or total records it.
func (s *Session) compact() {
	remap := s.inc.Compact()
	for id, slot := range s.byID {
		if slot != parkedSlot {
			s.byID[id] = remap[slot]
		}
	}
}

// Tombstones returns the number of dead slots accumulated since the
// last compaction.
func (s *Session) Tombstones() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inc.Tombstones()
}

// Refresh resynchronises the session with the store after external
// writes: cached witnesses are dropped and the full condensation is
// re-solved at batch cost. Callers that
// interleave store writers with a session pause them and Refresh; see
// the dirty-region invariant in DESIGN.md.
func (s *Session) Refresh() (coord.DeltaStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, err := s.inc.Refresh()
	s.totals.Dirty += d.Dirty
	s.totals.Reused += d.Reused
	s.totals.DBQueries += d.DBQueries
	s.publish()
	return d, err
}

// Size returns the number of live queries.
func (s *Session) Size() int { return s.readCounts().live }

// ParkedCount returns the number of arrivals currently parked.
func (s *Session) ParkedCount() int { return s.readCounts().parked }

// Totals returns the session-lifetime statistics.
func (s *Session) Totals() Totals { return s.readCounts().totals }

// Queries returns the live queries in arrival order — the set a batch
// run would be given to reproduce the session's state.
func (s *Session) Queries() []eq.Query {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inc.LiveQueries()
}

// Status is a consistent snapshot of a session's observable state,
// read under one lock acquisition so its fields agree with each other
// (Result's set indices are positions in Queries; Live == len(Queries)).
type Status struct {
	// Queries holds the live queries in arrival order.
	Queries []eq.Query
	// Result is the currently selected coordinating set (nil when
	// nothing grounds); indices are positions in Queries.
	Result *coord.Result
	// Trace is the current state's step-by-step record; nil unless
	// requested.
	Trace *coord.Trace
	// Parked is the number of arrivals currently parked.
	Parked int
	// Totals is the session-lifetime statistics.
	Totals Totals
}

// Status snapshots the session in one lock acquisition. Callers that
// read Result and Queries separately can observe them from different
// states when other clients are joining and leaving concurrently;
// Status cannot. It issues no database queries.
func (s *Session) Status(withTrace bool) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := s.inc.Positions()
	res, err := s.resultLocked(pos)
	if err != nil {
		return Status{}, err
	}
	st := Status{
		Queries: s.inc.LiveQueries(),
		Result:  res,
		Parked:  len(s.parked),
		Totals:  s.totals,
	}
	if withTrace {
		st.Trace = s.inc.Trace(pos)
	}
	return st, nil
}

// Result returns the currently selected coordinating set (nil when
// nothing grounds) without issuing database queries. Set indices are
// positions in Queries(); Result.DBQueries is the marginal cost of the
// event that produced this state.
func (s *Session) Result() (*coord.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resultLocked(s.inc.Positions())
}

// resultLocked is Result under an already-held lock; pos is the
// coordinator's Positions, the translation from its stable slots to
// the indices of Queries().
func (s *Session) resultLocked(pos []int) (*coord.Result, error) {
	res, err := s.inc.Result()
	if err != nil || res == nil {
		return res, err
	}
	// Translate stable slots to live positions so the indices line up
	// with Queries(), the way batch callers expect. The set is res's own.
	values := make(map[int]map[string]eq.Value, len(res.Values))
	for i, slot := range res.Set {
		res.Set[i] = pos[slot]
		values[pos[slot]] = res.Values[slot]
	}
	res.Values = values
	return res, nil
}
