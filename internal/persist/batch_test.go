package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/fault"
	"entangled/internal/stream"
	"entangled/internal/workload"
)

// recordFS logs, in order, the operations the batch tests assert on:
// "open", "write" and "sync" of a file and "syncdir" of a directory,
// each with the base name.
type recordFS struct {
	fault.FS
	mu  sync.Mutex
	ops []string
}

func (r *recordFS) log(op, name string) {
	r.mu.Lock()
	r.ops = append(r.ops, op+" "+filepath.Base(name))
	r.mu.Unlock()
}

// count reports how many logged operations start with prefix.
func (r *recordFS) count(prefix string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, op := range r.ops {
		if strings.HasPrefix(op, prefix) {
			n++
		}
	}
	return n
}

func (r *recordFS) OpenFile(name string, flag int, perm fs.FileMode) (fault.File, error) {
	f, err := r.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	r.log("open", name)
	return &recordFile{File: f, fs: r, name: name}, nil
}

func (r *recordFS) SyncDir(name string) error {
	r.log("syncdir", name)
	return r.FS.SyncDir(name)
}

type recordFile struct {
	fault.File
	fs   *recordFS
	name string
}

func (f *recordFile) Write(p []byte) (int, error) {
	f.fs.log("write", f.name)
	return f.File.Write(p)
}

func (f *recordFile) Sync() error {
	f.fs.log("sync", f.name)
	return f.File.Sync()
}

// TestApplyAllIsOneSync: the 1,002-mutation seed table costs the store
// WAL one write and one fsync under SyncAlways, not one per mutation.
func TestApplyAllIsOneSync(t *testing.T) {
	rec := &recordFS{FS: fault.OS}
	b := openT(t, t.TempDir(), Options{FS: rec})
	defer b.Close()
	ms := workload.UserTableMutations(1000)
	before := b.Metrics()
	if err := db.ApplyAll(b, ms); err != nil {
		t.Fatal(err)
	}
	after := b.Metrics()
	if got := after.StoreSyncs - before.StoreSyncs; got != 1 {
		t.Fatalf("ApplyAll of %d mutations cost %d fsyncs, want 1", len(ms), got)
	}
	if got := after.StoreAppends - before.StoreAppends; got != int64(len(ms)) {
		t.Fatalf("StoreAppends rose by %d, want one frame per mutation (%d)", got, len(ms))
	}
	if w := rec.count("write wal-"); w != 1 {
		t.Fatalf("%d writes to the WAL, want 1", w)
	}
}

// TestBatchSplitsWhereSingleAppendsRotate: a batch crossing RotateBytes
// leaves byte-identical segments to the same mutations applied one at a
// time, and under SyncAlways costs one fsync per segment it touches.
func TestBatchSplitsWhereSingleAppendsRotate(t *testing.T) {
	ms := seedMutations(60)
	opts := Options{RotateBytes: 512, CompactBytes: -1}
	one, batch := t.TempDir(), t.TempDir()
	b := openT(t, one, opts)
	for _, m := range ms {
		if err := b.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	b = openT(t, batch, opts)
	if err := b.Apply(ms...); err != nil {
		t.Fatal(err)
	}
	syncs := b.Metrics().StoreSyncs
	b.Close()

	segs, _, err := scanStoreDir(fault.OS, filepath.Join(one, "store"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := scanStoreDir(fault.OS, filepath.Join(batch, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 || !reflect.DeepEqual(got, segs) {
		t.Fatalf("segments %v after a batch, %v one at a time (want ≥ 3, equal)", got, segs)
	}
	for _, s := range segs {
		a, _ := os.ReadFile(filepath.Join(one, "store", segName(s)))
		c, _ := os.ReadFile(filepath.Join(batch, "store", segName(s)))
		if !bytes.Equal(a, c) {
			t.Fatalf("segment %d differs: %d bytes one at a time, %d batched", s, len(a), len(c))
		}
	}
	if syncs != int64(len(segs)) {
		t.Fatalf("batch over %d segments cost %d fsyncs, want one per segment", len(segs), syncs)
	}
}

// TestBatchInvalidMutationKeepsDurablePrefix: an invalid mutation at
// index i stops the batch; the prefix before it is applied and durable,
// so a crash and reopen replays exactly that prefix, and the error
// names index i.
func TestBatchInvalidMutationKeepsDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	ms := seedMutations(10)
	const i = 7
	ms = append(ms[:i:i], append([]db.Mutation{db.MInsert("Nope", "x")}, ms[i:]...)...)
	b := openT(t, dir, Options{})
	err := db.ApplyAll(b, ms)
	var me *db.MutationError
	if !errors.As(err, &me) || me.Index != i || !strings.Contains(err.Error(), "applying mutation 7 (insert Nope[x])") {
		t.Fatalf("ApplyAll error %v, want one naming mutation %d", err, i)
	}
	want := probe(t, b)
	b.Abort()

	re := openT(t, dir, Options{})
	defer re.Close()
	if got := re.RecoveryStats().WALFrames; got != i {
		t.Fatalf("replayed %d frames, want the %d-mutation prefix", got, i)
	}
	mem := db.NewInstance()
	if err := db.ApplyAll(mem, ms[:i]); err != nil {
		t.Fatal(err)
	}
	if got := probe(t, re); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, probe(t, mem)) {
		t.Fatalf("recovered answers %v, want the prefix's %v", got, want)
	}
}

// TestBatchWriteFaultQueuesWholePrefix: a write fault during a batch
// fails its ack as indeterminate with every applied payload pending;
// the probe flushes them in one write and one fsync, and a reopen
// replays each exactly once.
func TestBatchWriteFaultQueuesWholePrefix(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(1, fault.Rule{Op: fault.OpWrite, Path: "wal-", Count: 1,
		Fault: fault.Fault{Err: syscall.ENOSPC, Torn: 5}})
	rec := &recordFS{FS: fault.NewFS(fault.OS, inj)}
	b := openT(t, dir, Options{FS: rec})
	ms := seedMutations(20)
	if err := db.ApplyAll(b, ms); !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("batch over a failing write: %v, want ErrIndeterminate", err)
	}
	if m := b.Metrics(); !m.Degraded || m.PendingAppends != len(ms) {
		t.Fatalf("after the fault: degraded=%v pending=%d, want true/%d", m.Degraded, m.PendingAppends, len(ms))
	}
	if err := b.Apply(db.MInsert("T", "late", "c0")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("apply while degraded: %v, want ErrDegraded", err)
	}
	writes, syncs := rec.count("write wal-"), rec.count("sync wal-")
	if err := b.Probe(); err != nil {
		t.Fatal(err)
	}
	if w, s := rec.count("write wal-")-writes, rec.count("sync wal-")-syncs; w != 1 || s != 1 {
		t.Fatalf("probe flush cost %d writes and %d fsyncs, want 1 and 1", w, s)
	}
	if m := b.Metrics(); m.Degraded || m.PendingAppends != 0 {
		t.Fatalf("after the probe: %+v", m)
	}
	want := probe(t, b)
	b.Abort()

	re := openT(t, dir, Options{})
	defer re.Close()
	if got := re.RecoveryStats().WALFrames; got != len(ms) {
		t.Fatalf("replayed %d frames, want %d", got, len(ms))
	}
	if got := probe(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered answers differ")
	}
}

// TestSingleApplyErrorText: a one-mutation Apply reads exactly as it
// did before Apply took a batch.
func TestSingleApplyErrorText(t *testing.T) {
	b := openT(t, t.TempDir(), Options{})
	defer b.Close()
	for _, c := range []struct {
		m    db.Mutation
		want string
	}{
		{db.MInsert("Nope", "x"), "db: insert into unknown relation Nope"},
		{db.Mutation{Kind: 99, Rel: "R"}, "json: error calling MarshalJSON for type db.Mutation: db: encoding unknown mutation kind 99"},
	} {
		if err := b.Apply(c.m); err == nil || err.Error() != c.want {
			t.Fatalf("Apply(%s) = %v, want %q", c.m, err, c.want)
		}
	}
}

// TestNewSegmentNamesAreSynced: every store segment the WAL creates is
// followed by a sync of store/ before the next Apply returns, so an
// acked frame in a fresh segment cannot lose its directory entry.
func TestNewSegmentNamesAreSynced(t *testing.T) {
	rec := &recordFS{FS: fault.OS}
	b := openT(t, t.TempDir(), Options{FS: rec, RotateBytes: 256, CompactBytes: -1})
	defer b.Close()
	applied := func() { rec.log("applied", "-") }
	if err := db.ApplyAll(b, seedMutations(20)); err != nil {
		t.Fatal(err)
	}
	applied()
	for _, m := range seedMutations(3)[2:] {
		if err := b.Apply(m); err != nil {
			t.Fatal(err)
		}
		applied()
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(db.MInsert("T", "after", "c0")); err != nil {
		t.Fatal(err)
	}
	applied()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	segments, unsynced := 0, ""
	for _, op := range rec.ops {
		switch {
		case strings.HasPrefix(op, "open wal-"):
			segments++
			unsynced = op
		case op == "syncdir store":
			unsynced = ""
		case op == "applied -" && unsynced != "":
			t.Fatalf("%q was not followed by a sync of store/ before an Apply returned:\n%s", unsynced, strings.Join(rec.ops, "\n"))
		}
	}
	if segments < 3 {
		t.Fatalf("only %d segments opened: the test needs rotation", segments)
	}
}

// TestIntervalSyncWithoutFurtherWrites: under SyncEvery a log left
// dirty by its last appends — a store frame and a session frame — is
// synced by the timer, with no later write to carry the sync, and that
// one fsync counts for both kinds.
func TestIntervalSyncWithoutFurtherWrites(t *testing.T) {
	b := openT(t, t.TempDir(), Options{Sync: SyncEvery(10 * time.Millisecond)})
	defer b.Close()
	j, err := b.CreateSessionJournal("s", false)
	if err != nil {
		t.Fatal(err)
	}
	// unsynced reports which frame kinds the log holds past its last
	// fsync: bit 0 store, bit 1 session.
	unsynced := func() uint8 {
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.wal.written == b.wal.synced {
			return 0
		}
		return b.wal.kinds
	}
	// An append that finds the interval already passed syncs inline and
	// leaves nothing for the timer; retry until both kinds are left
	// dirty. m0 is read before the dirty check, so the sync that cleans
	// the log comes after it.
	var m0 Metrics
	for k := 0; ; k++ {
		if k == 20 {
			t.Fatal("no pair of appends left the log dirty")
		}
		if err := b.Apply(db.MCreate("R", 0, "a")); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(stream.Event{Kind: stream.JoinEvent, Query: eq.Query{ID: "a"}}); err != nil {
			t.Fatal(err)
		}
		m0 = b.Metrics()
		if unsynced() == 3 {
			break
		}
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for {
		m := b.Metrics()
		if m.StoreSyncs > m0.StoreSyncs && m.SessionSyncs > m0.SessionSyncs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no timed sync within 100ms: store %d → %d, sessions %d → %d",
				m0.StoreSyncs, m.StoreSyncs, m0.SessionSyncs, m.SessionSyncs)
		}
		time.Sleep(time.Millisecond)
	}
	if unsynced() != 0 {
		t.Fatal("the log is still dirty after its timed sync")
	}
}

// TestIntervalTimerUnderConcurrentWriters: store and journal writers
// race the interval timers up to a Close; every acked write replays.
func TestIntervalTimerUnderConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{Sync: SyncEvery(time.Millisecond)})
	if err := b.Apply(db.MCreate("R", 0, "a")); err != nil {
		t.Fatal(err)
	}
	j, err := b.CreateSessionJournal("s", false)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				id := fmt.Sprintf("%d.%d", w, k)
				if err := b.Apply(db.MInsert("R", eq.Value(id))); err != nil {
					t.Error(err)
					return
				}
				if err := j.Append(stream.Event{Kind: stream.LeaveEvent, ID: id}); err != nil {
					t.Error(err)
					return
				}
				if k%10 == 0 {
					time.Sleep(2 * time.Millisecond) // a pause for the timers
				}
			}
		}(w)
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	re := openT(t, dir, Options{})
	defer re.Close()
	rs, err := re.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if got := re.RecoveryStats().WALFrames; got != 1+writers*each || len(rs) != 1 || len(rs[0].Events) != writers*each {
		t.Fatalf("replayed %d store frames and %v sessions, want %d and one of %d events", got, len(rs), 1+writers*each, writers*each)
	}
}
