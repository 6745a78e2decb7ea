package persist

import (
	"errors"
	"reflect"
	"syscall"
	"testing"
	"time"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/fault"
	"entangled/internal/stream"
)

// faultOpts builds Options writing through an injected filesystem.
func faultOpts(inj *fault.Injector, sync SyncPolicy) Options {
	return Options{Sync: sync, FS: fault.NewFS(fault.OS, inj)}
}

// TestApplyWALFailureDegradesAndProbeRecovers is the core degraded-mode
// contract on the store WAL: a fsync failure fails exactly that ack
// (indeterminate — applied in memory, queued for the journal), every
// later write is rejected up front (degraded — fate known), a probe
// write flushes the pending payload and lifts the degradation, and a
// reopen replays exactly one copy of every journaled mutation (the
// rolled-back torn frame is not duplicated by the flush).
func TestApplyWALFailureDegradesAndProbeRecovers(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(1,
		fault.Rule{Op: fault.OpSync, Path: "wal-", After: 2, Count: 1,
			Fault: fault.Fault{Err: syscall.EIO}})
	b := openT(t, dir, faultOpts(inj, SyncAlways))
	defer b.Close()

	ms := seedMutations(6)
	applied := 0 // frames that must replay on reopen
	var indeterminate, rejected bool
	for _, m := range ms {
		err := b.Apply(m)
		switch {
		case err == nil:
			applied++
		case errors.Is(err, ErrIndeterminate):
			if indeterminate {
				t.Fatal("second indeterminate ack: only the failing append may be indeterminate")
			}
			indeterminate = true
			applied++ // queued; the probe below makes it durable
			if !b.Degraded() {
				t.Fatal("backend not degraded after an indeterminate ack")
			}
		case errors.Is(err, ErrDegraded):
			rejected = true // fate known: NOT applied, must not replay
		default:
			t.Fatalf("untyped Apply error: %v", err)
		}
	}
	if !indeterminate || !rejected {
		t.Fatalf("indeterminate=%v rejected=%v: the schedule should produce both", indeterminate, rejected)
	}
	if err := b.Probe(); err != nil {
		t.Fatalf("probe with a healthy disk: %v", err)
	}
	if b.Degraded() {
		t.Fatal("still degraded after a successful probe")
	}
	if m := b.Metrics(); m.PendingAppends != 0 || m.DegradeEvents != 1 {
		t.Fatalf("metrics after probe: %+v", m)
	}
	// The write path is open again.
	if err := b.Apply(db.MCreate("Extra", 0, "k")); err != nil {
		t.Fatalf("apply after recovery: %v", err)
	}
	applied++
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	re := openT(t, dir, Options{})
	defer re.Close()
	if got := re.RecoveryStats().WALFrames; got != applied {
		t.Fatalf("replayed %d frames, want %d (lost or duplicated a frame around the fault)", got, applied)
	}
}

// TestSessionJournalPendingPreservesOrder: an append that fails queues
// its payload; every append behind it queues too (order preserved even
// though the disk is healthy again by then), and the probe flush lands
// them in admission order.
func TestSessionJournalPendingPreservesOrder(t *testing.T) {
	dir := t.TempDir()
	// The log's first write is the session's create frame; fail the
	// second (the first event append).
	inj := fault.NewInjector(1,
		fault.Rule{Op: fault.OpWrite, Path: "wal-", After: 1, Count: 1,
			Fault: fault.Fault{Err: syscall.EIO}})
	b := openT(t, dir, faultOpts(inj, SyncAlways))
	defer b.Close()

	j, err := b.CreateSessionJournal("s", false)
	if err != nil {
		t.Fatal(err)
	}
	evs := []stream.Event{
		{Kind: stream.JoinEvent, Query: eq.Query{ID: "a"}},
		{Kind: stream.JoinEvent, Query: eq.Query{ID: "b"}},
		{Kind: stream.LeaveEvent, ID: "a"},
	}
	for i, ev := range evs {
		if err := j.Append(ev); !errors.Is(err, ErrIndeterminate) {
			t.Fatalf("append %d: %v, want indeterminate (first failed, rest queued behind it)", i, err)
		}
	}
	if !b.Degraded() {
		t.Fatal("backend not degraded after a journal append failure")
	}
	if m := b.Metrics(); m.PendingAppends != len(evs) {
		t.Fatalf("pending %d, want %d", m.PendingAppends, len(evs))
	}
	if err := b.Probe(); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if _, faults := inj.Stats(); faults == 0 {
		t.Fatal("the write rule injected nothing")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	re := openT(t, dir, Options{})
	defer re.Close()
	recovered, err := re.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(recovered))
	}
	got := recovered[0].Events
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("recovered events out of order or lost:\ngot  %+v\nwant %+v", got, evs)
	}
}

// TestCreateSessionJournalDirSyncFailure: the fsync that makes a new
// session's create frame durable is part of the create — its failure
// fails the create (no half-born journal) and degrades the backend, and
// no ghost session resurrects on reopen: the probe flushes the create
// together with the drop queued behind it.
func TestCreateSessionJournalDirSyncFailure(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(1,
		fault.Rule{Op: fault.OpSync, Path: "wal-", Count: 1,
			Fault: fault.Fault{Err: syscall.EIO}})
	b := openT(t, dir, faultOpts(inj, SyncAlways))
	defer b.Close()

	if _, err := b.CreateSessionJournal("ghost", false); err == nil {
		t.Fatal("create succeeded though its frame is not durable")
	} else if !errors.Is(err, syscall.EIO) {
		t.Fatalf("create error %v does not surface the injected cause", err)
	}
	if _, faults := inj.Stats(); faults == 0 {
		t.Fatal("the sync rule injected nothing")
	}
	if !b.Degraded() {
		t.Fatal("backend not degraded after the create's sync failed")
	}
	// While degraded, creates are rejected up front.
	if _, err := b.CreateSessionJournal("next", false); !errors.Is(err, ErrDegraded) {
		t.Fatalf("create while degraded: %v, want ErrDegraded", err)
	}
	if err := b.Probe(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	re := openT(t, dir, Options{})
	defer re.Close()
	recovered, err := re.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("ghost session resurrected: %v", recovered)
	}
	if m := re.Metrics(); m.OpenJournals != 0 {
		t.Fatalf("%d open journals after the ghost's drop", m.OpenJournals)
	}
}

// TestProbeFailureKeepsDegraded: a probe that cannot reach stable
// storage keeps the backend degraded (and counts the failure); the
// next healthy probe lifts it.
func TestProbeFailureKeepsDegraded(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(1,
		fault.Rule{Op: fault.OpSync, Path: "wal-", After: 1, Count: 1,
			Fault: fault.Fault{Err: syscall.EIO}},
		fault.Rule{Op: fault.OpWrite, Path: "probe.tmp", Count: 1,
			Fault: fault.Fault{Err: syscall.ENOSPC}})
	b := openT(t, dir, faultOpts(inj, SyncAlways))
	defer b.Close()

	ms := seedMutations(2)
	for _, m := range ms {
		if err := b.Apply(m); err != nil {
			break
		}
	}
	if !b.Degraded() {
		t.Fatal("schedule bug: backend should be degraded")
	}
	if err := b.Probe(); err == nil {
		t.Fatal("probe succeeded though the scratch write failed")
	}
	if !b.Degraded() {
		t.Fatal("failed probe lifted the degradation")
	}
	if err := b.Probe(); err != nil {
		t.Fatalf("second probe: %v", err)
	}
	if b.Degraded() {
		t.Fatal("still degraded after a successful probe")
	}
	m := b.Metrics()
	if m.Probes != 2 || m.ProbeFailures != 1 {
		t.Fatalf("probes=%d failures=%d, want 2/1", m.Probes, m.ProbeFailures)
	}
	if !inj.Exhausted() {
		t.Fatal("fault schedule not fully consumed")
	}
}

// TestSyncMarksDegraded: an explicit Sync failure (policy flush, drain
// path) degrades the backend instead of silently losing the flush.
func TestSyncMarksDegraded(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(1,
		fault.Rule{Op: fault.OpSync, Path: "wal-", Count: 1,
			Fault: fault.Fault{Err: syscall.EIO}})
	b := openT(t, dir, faultOpts(inj, SyncNever))
	defer b.Close()

	for _, m := range seedMutations(2) {
		if err := b.Apply(m); err != nil {
			t.Fatalf("apply under SyncNever: %v", err)
		}
	}
	if err := b.Sync(); err == nil {
		t.Fatal("Sync swallowed the injected fsync failure")
	}
	if !b.Degraded() {
		t.Fatal("backend not degraded after a failed Sync")
	}
	if err := b.Probe(); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if err := b.Sync(); err != nil {
		t.Fatalf("sync after repair: %v", err)
	}
}

// TestProbeFlushHoldsTheLog: an event appended while the probe's flush
// is being fsynced waits for the probe instead of queueing behind a
// flush that has already left: it lands in the healthy log after the
// flush, nothing is left pending, and a reopen replays both events in
// order.
func TestProbeFlushHoldsTheLog(t *testing.T) {
	dir := t.TempDir()
	// The create frame is the log's first write and first fsync. Fail
	// the second write (the first event's) and hold the second fsync
	// (the probe's flush).
	inj := fault.NewInjector(1,
		fault.Rule{Op: fault.OpWrite, Path: "wal-", After: 1, Count: 1,
			Fault: fault.Fault{Err: syscall.EIO}},
		fault.Rule{Op: fault.OpSync, Path: "wal-", After: 1, Count: 1,
			Fault: fault.Fault{Delay: 200 * time.Millisecond}})
	b := openT(t, dir, faultOpts(inj, SyncAlways))
	j, err := b.CreateSessionJournal("s", false)
	if err != nil {
		t.Fatal(err)
	}
	evs := []stream.Event{
		{Kind: stream.JoinEvent, Query: eq.Query{ID: "a"}},
		{Kind: stream.LeaveEvent, ID: "a"},
	}
	if err := j.Append(evs[0]); !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("first append: %v, want indeterminate", err)
	}
	probed := make(chan error, 1)
	go func() { probed <- b.Probe() }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, faults := inj.Stats(); faults == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the probe's fsync was never held")
		}
	}
	if err := j.Append(evs[1]); err != nil {
		t.Fatalf("append during the probe's fsync: %v, want it to wait for the probe", err)
	}
	if err := <-probed; err != nil {
		t.Fatalf("probe: %v", err)
	}
	if m := b.Metrics(); m.Degraded || m.PendingAppends != 0 {
		t.Fatalf("after the probe: degraded %v, %d pending", m.Degraded, m.PendingAppends)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	re := openT(t, dir, Options{})
	defer re.Close()
	rs, err := re.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || !reflect.DeepEqual(rs[0].Events, evs) {
		t.Fatalf("recovered %+v, want one session with %+v", rs, evs)
	}
}

// TestFailedCompactionBacksOff: a snapshot that cannot be written fails
// its compaction before the log rotates, and the next attempt waits for
// another CompactBytes of log, so a lasting failure costs neither a
// segment nor a read-back of the log per append.
func TestFailedCompactionBacksOff(t *testing.T) {
	const compactBytes = 2048
	inj := fault.NewInjector(1, fault.Rule{Op: fault.OpWrite, Path: "snapshot.tmp",
		Fault: fault.Fault{Err: syscall.EIO}})
	b := openT(t, t.TempDir(), Options{FS: fault.NewFS(fault.OS, inj), CompactBytes: compactBytes})
	defer b.Close()
	for _, m := range seedMutations(120) {
		if err := b.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	m := b.Metrics()
	_, faults := inj.Stats()
	if m.CompactFailures == 0 || m.CompactFailures != faults || m.CompactFailures > m.StoreBytes/compactBytes {
		t.Fatalf("%d failed compactions (%d faults) over %d log bytes, want 1 to %d",
			m.CompactFailures, faults, m.StoreBytes, m.StoreBytes/compactBytes)
	}
	if m.StoreRotations != 0 || m.Compactions != 0 || m.Degraded {
		t.Fatalf("after failed compactions: %+v", m)
	}
}
