package server

import (
	"context"
	"testing"
	"time"

	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/persist"
	"entangled/internal/stream"
	"entangled/internal/workload"
)

// heldDrop holds a journal's Drop until release is closed, widening the
// window between a session leaving the registry and its drop frame
// reaching the log.
type heldDrop struct {
	*persist.SessionJournal
	release chan struct{}
}

func (j heldDrop) Drop() error {
	<-j.release
	return j.SessionJournal.Drop()
}

// TestRecreateWaitsForTheDrop: a create of a name whose removal is still
// being logged waits for the old life's drop frame, so the log never
// reads create(new), drop(old), event(new) — a history whose replay
// ends the new life and then finds its event without a create. The data
// dir reopens with the new life and its event.
func TestRecreateWaitsForTheDrop(t *testing.T) {
	const rows = 32
	dir := t.TempDir()
	b, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyAll(b, workload.UserTableMutations(rows)); err != nil {
		t.Fatal(err)
	}
	e := engine.New(b, engine.Options{})
	r := newRegistry(func(park bool) *stream.Session { return e.NewSession(stream.Options{ParkUnsafe: park}) },
		8, 0, func(string, stream.Update) {}, func(string) {})
	release := make(chan struct{})
	r.newJournal = func(name string, park bool) (eventJournal, error) {
		j, err := b.CreateSessionJournal(name, park)
		if err != nil {
			return nil, err
		}
		return heldDrop{j, release}, nil
	}
	if _, err := r.create("x", false); err != nil {
		t.Fatal(err)
	}
	removed := make(chan error, 1)
	go func() { removed <- r.remove("x") }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := r.get("x"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the removal never took x out of the registry")
		}
	}
	type created struct {
		h   *sessionHandle
		err error
	}
	recreated := make(chan created, 1)
	go func() {
		h, err := r.create("x", false)
		recreated <- created{h, err}
	}()
	select {
	case c := <-recreated:
		t.Fatalf("create returned (%v) before the old life's drop was logged", c.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-removed; err != nil {
		t.Fatal(err)
	}
	c := <-recreated
	if c.err != nil {
		t.Fatal(c.err)
	}
	ev := stream.Event{Kind: stream.JoinEvent, Query: workload.Arrivals(workload.Steady, 1, rows, 3)[0].Query}
	if up, err := c.h.post(context.Background(), ev); err != nil || !up.Admitted && !up.Parked {
		t.Fatalf("event on the new life: %+v, %v", up, err)
	}
	r.close()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	rs, err := re.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Name != "x" || len(rs[0].Events) != 1 {
		t.Fatalf("recovered %+v, want x with its one event", rs)
	}
}
