package persist

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/fault"
	"entangled/internal/stream"
)

// cutFS tracks, per path, the bytes written and the length a completed
// Sync covers, so that cut can truncate every file back to its synced
// length: the disk a power cut leaves behind a Backend.Abort. It also
// counts fsyncs.
type cutFS struct {
	fault.FS
	mu     sync.Mutex
	size   map[string]int64
	synced map[string]int64
	syncs  int
}

func newCutFS(inner fault.FS) *cutFS {
	return &cutFS{FS: inner, size: map[string]int64{}, synced: map[string]int64{}}
}

func (c *cutFS) OpenFile(name string, flag int, perm fs.FileMode) (fault.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	c.mu.Lock()
	if _, seen := c.size[name]; !seen {
		c.size[name], c.synced[name] = end, end
	}
	c.mu.Unlock()
	return &cutFile{File: f, fs: c, name: name}, nil
}

// truncated lowers name's lengths to at most n.
func (c *cutFS) truncated(name string, n int64) {
	c.mu.Lock()
	c.size[name] = n
	c.synced[name] = min(c.synced[name], n)
	c.mu.Unlock()
}

// cut truncates every file to its synced length.
func (c *cutFS) cut() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, n := range c.synced {
		if c.size[name] > n {
			if err := os.Truncate(name, n); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *cutFS) fsyncs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncs
}

type cutFile struct {
	fault.File
	fs   *cutFS
	name string
	pos  int64
}

func (f *cutFile) Seek(offset int64, whence int) (int64, error) {
	pos, err := f.File.Seek(offset, whence)
	if err == nil {
		f.pos = pos
	}
	return pos, err
}

func (f *cutFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.pos += int64(n)
	f.fs.mu.Lock()
	f.fs.size[f.name] = max(f.fs.size[f.name], f.pos)
	f.fs.mu.Unlock()
	return n, err
}

func (f *cutFile) Truncate(n int64) error {
	if err := f.File.Truncate(n); err != nil {
		return err
	}
	f.fs.truncated(f.name, n)
	return nil
}

// Sync covers what was written before it started.
func (f *cutFile) Sync() error {
	f.fs.mu.Lock()
	n := f.fs.size[f.name]
	f.fs.mu.Unlock()
	err := f.File.Sync()
	f.fs.mu.Lock()
	f.fs.syncs++
	if err == nil && n > f.fs.synced[f.name] {
		f.fs.synced[f.name] = n
	}
	f.fs.mu.Unlock()
	return err
}

// TestGroupCommitSharesOneFsync: while the first fsync of the log is
// held, eight sessions each append one event under SyncAlways. Every
// append acks, the eight cost the log at most two fsyncs (the held one
// and one covering the rest), and a crash that keeps only synced bytes
// recovers all eight.
func TestGroupCommitSharesOneFsync(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(1, fault.Rule{Op: fault.OpSync, Path: "wal-", Count: 1,
		Fault: fault.Fault{Delay: 200 * time.Millisecond}})
	inj.Disarm()
	cut := newCutFS(fault.NewFS(fault.OS, inj))
	b := openT(t, dir, Options{FS: cut})
	const n = 8
	journals := make([]*SessionJournal, n)
	for i := range journals {
		var err error
		if journals[i], err = b.CreateSessionJournal(fmt.Sprintf("s%d", i), false); err != nil {
			t.Fatal(err)
		}
	}
	before := cut.fsyncs()
	inj.Arm()
	start := make(chan struct{})
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, j := range journals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[i] = j.Append(stream.Event{Kind: stream.LeaveEvent, ID: fmt.Sprint(i)})
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, faults := inj.Stats(); faults != 1 {
		t.Fatalf("the delay fired %d times, want once", faults)
	}
	if got := cut.fsyncs() - before; got > 2 {
		t.Fatalf("%d appends took %d fsyncs, want at most 2", n, got)
	}
	b.Abort()
	if err := cut.cut(); err != nil {
		t.Fatal(err)
	}
	re := openT(t, dir, Options{})
	defer re.Close()
	rs, err := re.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != n {
		t.Fatalf("recovered %d sessions, want %d", len(rs), n)
	}
	for i, s := range rs {
		if want := []stream.Event{{Kind: stream.LeaveEvent, ID: fmt.Sprint(i)}}; !reflect.DeepEqual(s.Events, want) {
			t.Fatalf("session %s recovered %v, want %v", s.Name, s.Events, want)
		}
	}
}

// TestCompactionCarriesLiveSessions: a snapshot carries each live
// session forward — its create frame and events — and not a dropped
// session's: b's first life ends with its drop, and only its second
// comes back. No superseded segment or snapshot remains.
func TestCompactionCarriesLiveSessions(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{RotateBytes: 256, CompactBytes: -1})
	if err := db.ApplyAll(b, seedMutations(10)); err != nil {
		t.Fatal(err)
	}
	want := probe(t, b)
	join := func(id string) stream.Event {
		return stream.Event{Kind: stream.JoinEvent, Query: eq.Query{ID: id, Head: []eq.Atom{eq.NewAtom("R", eq.V("x"))}}}
	}
	appendAll := func(j *SessionJournal, evs ...stream.Event) {
		t.Helper()
		for _, ev := range evs {
			if err := j.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	create := func(name string, park bool) *SessionJournal {
		t.Helper()
		j, err := b.CreateSessionJournal(name, park)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, first := create("a", true), create("b", false)
	aEvents := []stream.Event{join("a1"), join("a2"), {Kind: stream.LeaveEvent, ID: "a1"}}
	appendAll(a, aEvents[:2]...)
	appendAll(first, join("b1"), join("b2"))
	if err := first.Drop(); err != nil {
		t.Fatal(err)
	}
	appendAll(a, aEvents[2])
	appendAll(create("b", true), join("b3"))
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	b.Abort()

	segs, snaps, err := scanStoreDir(fault.OS, filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || len(segs) != 1 || segs[0] != snaps[0] {
		t.Fatalf("after compaction: segments %v, snapshots %v", segs, snaps)
	}
	re := openT(t, dir, Options{})
	defer re.Close()
	rs, err := re.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	wantRS := []RecoveredSession{
		{Name: "a", Park: true, Events: aEvents},
		{Name: "b", Park: true, Events: []stream.Event{join("b3")}},
	}
	for i := range rs {
		rs[i].Journal = nil
	}
	if !reflect.DeepEqual(rs, wantRS) {
		t.Fatalf("recovered %+v\nwant %+v", rs, wantRS)
	}
	if rec := re.RecoveryStats(); rec.SnapshotFrames != len(seedMutations(10)) || rec.WALFrames != 0 || rec.Sessions != 2 || rec.SessionEvents != 4 {
		t.Fatalf("recovery stats %+v", rec)
	}
	if got := probe(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("the snapshot's store answers differently")
	}
}
