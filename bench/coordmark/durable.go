package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"entangled/internal/api"
	"entangled/internal/client"
)

// durableState is what session_durable_fsync needs after the measured
// phase: the data directory, the filesystem decorator that knows what
// was synced, and the sessions whose state must survive.
type durableState struct {
	dir   string
	fs    *crashFS
	node  *node
	plans [][]sessionPlan
	tr    *tracer

	// Filled by crashAndRecover.
	recovery     time.Duration // persist.Open + server.New until the first Status answers
	recoveredEvs int           // session events replayed from the journals
	droppedBytes int64         // bytes the simulated power cut discarded
}

// crashAndRecover simulates a power cut and checks that nothing
// acknowledged was lost: the load has stopped, so every event the
// clients were acked for is known. It reads every session's status,
// aborts the backend (handles close, nothing is flushed), discards
// every byte no completed Sync covers, reopens the data directory with
// persist.Open + server.New, and requires every session to come back
// with exactly the pre-crash status and every acked event to be in the
// replayed journals. The time from Open to the first answered Status is
// the recovery time.
func (d *durableState) crashAndRecover(ctx context.Context, in *instance, clients []*client.Client) error {
	before := make([]*api.SessionStatus, len(d.plans))
	var acked int
	for w, ps := range d.plans {
		st, err := clients[w].Session(ps[0].cs.session).Status(ctx, false)
		if err != nil {
			return fmt.Errorf("pre-crash status: %w", err)
		}
		before[w] = st
		acked += st.Totals.Events
	}

	d.node.backend.Abort()
	dropped, err := d.fs.discardUnsynced()
	if err != nil {
		return fmt.Errorf("discarding unsynced bytes: %w", err)
	}
	d.droppedBytes = dropped
	d.node.stop() // releases goroutines and listeners; the backend is already closed

	start := time.Now()
	n, err := bootNode(nodeConfig{shards: 1, rows: durableRows, dataDir: d.dir, fs: d.fs, tr: d.tr})
	if err != nil {
		return fmt.Errorf("reopening after the crash: %w", err)
	}
	in.onClose(n.stop)
	c, err := client.New(n.wireURL, client.Options{})
	if err != nil {
		return err
	}
	in.onClose(func() { c.Close() })
	first, err := c.Session(d.plans[0][0].cs.session).Status(ctx, false)
	if err != nil {
		return fmt.Errorf("first status after recovery: %w", err)
	}
	d.recovery = time.Since(start)

	rec := n.backend.RecoveryStats()
	d.recoveredEvs = rec.SessionEvents
	if rec.SessionEvents != acked {
		return fmt.Errorf("journals replayed %d events, clients were acked %d", rec.SessionEvents, acked)
	}
	if rec.Sessions != len(d.plans) {
		return fmt.Errorf("recovered %d sessions, want %d", rec.Sessions, len(d.plans))
	}
	for w, ps := range d.plans {
		st := first
		if w > 0 {
			if st, err = c.Session(ps[0].cs.session).Status(ctx, false); err != nil {
				return fmt.Errorf("status of %s after recovery: %w", ps[0].cs.session, err)
			}
		}
		if !reflect.DeepEqual(st, before[w]) {
			return fmt.Errorf("session %s: recovered status differs from the pre-crash one", ps[0].cs.session)
		}
	}
	d.node = n
	return nil
}
