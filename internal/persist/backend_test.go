package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/fault"
	"entangled/internal/frame"
	"entangled/internal/stream"
)

// seedMutations builds a small two-relation store with an index.
func seedMutations(rows int) []db.Mutation {
	ms := []db.Mutation{
		db.MCreate("T", 1, "key", "val"),
		db.MCreate("Likes", 0, "user", "item"),
	}
	for i := 0; i < rows; i++ {
		ms = append(ms,
			db.MInsert("T", eq.Value("t"+strconv.Itoa(i)), eq.Value("c"+strconv.Itoa(i%7))),
			db.MInsert("Likes", eq.Value("u"+strconv.Itoa(i%5)), eq.Value("t"+strconv.Itoa(i))))
	}
	return append(ms, db.MIndex("T", 1))
}

// probe answers a join over both relations, order-sensitive.
func probe(t *testing.T, s db.Store) []db.Binding {
	t.Helper()
	res, err := s.SolveAll([]eq.Atom{
		eq.NewAtom("Likes", eq.C("u2"), eq.V("i")),
		eq.NewAtom("T", eq.V("i"), eq.V("v")),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func openT(t *testing.T, dir string, opts Options) *Backend {
	t.Helper()
	b, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// openSmall is openT with the log's two sizes shrunk, so a test's few
// frames rotate segments every rotate bytes and compact every compact
// bytes.
func openSmall(t *testing.T, dir string, opts Options, rotate, compact int64) *Backend {
	t.Helper()
	b := openT(t, dir, opts)
	b.wal.rotateBytes, b.compactBytes = rotate, compact
	return b
}

func TestBackendReopenMatchesInMemoryReplay(t *testing.T) {
	for _, shards := range []int{1, 4} {
		dir := t.TempDir()
		ms := seedMutations(60)
		b := openT(t, dir, Options{Shards: shards, Sync: SyncNever})
		if !b.Fresh() {
			t.Fatal("first open of an empty dir is not fresh")
		}
		if err := db.ApplyAll(b, ms); err != nil {
			t.Fatal(err)
		}
		want := probe(t, b)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}

		re := openT(t, dir, Options{Shards: shards})
		if re.Fresh() {
			t.Fatal("reopen claims fresh")
		}
		rec := re.RecoveryStats()
		if rec.WALFrames != len(ms) {
			t.Fatalf("shards=%d: replayed %d frames, wrote %d", shards, rec.WALFrames, len(ms))
		}
		var mem db.WriteStore
		if shards <= 1 {
			mem = db.NewInstance()
		} else {
			mem = db.NewShardedInstance(shards)
		}
		if err := db.ApplyAll(mem, ms); err != nil {
			t.Fatal(err)
		}
		if got := probe(t, re); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, probe(t, mem)) {
			t.Fatalf("shards=%d: recovered store answers differ:\n got  %v\n want %v\n mem  %v", shards, got, want, probe(t, mem))
		}
		if !reflect.DeepEqual(re.Domain(), mem.Domain()) {
			t.Fatalf("shards=%d: domains differ", shards)
		}
		re.Close()
	}
}

func TestBackendShardMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	openT(t, dir, Options{Shards: 2}).Close()
	if _, err := Open(dir, Options{Shards: 3}); err == nil {
		t.Fatal("reopen with a different shard count succeeded")
	}
	// Shards: 0 means "whatever the dir says".
	b := openT(t, dir, Options{})
	if b.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", b.Shards())
	}
	b.Close()
}

func TestBackendRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation; manual compaction only.
	b := openSmall(t, dir, Options{Sync: SyncNever}, 256, compactBytes)
	if err := db.ApplyAll(b, seedMutations(80)); err != nil {
		t.Fatal(err)
	}
	want := probe(t, b)
	segs, _, err := scanStoreDir(fault.OS, filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("no rotation: %d segment(s)", len(segs))
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	segs, snaps, err := scanStoreDir(fault.OS, filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || len(segs) != 1 || segs[0] != snaps[0] {
		t.Fatalf("after compaction: segments %v snapshots %v", segs, snaps)
	}
	if got := probe(t, b); !reflect.DeepEqual(got, want) {
		t.Fatal("compaction changed answers")
	}
	b.Close()

	re := openT(t, dir, Options{})
	rec := re.RecoveryStats()
	if rec.SnapshotFrames == 0 || rec.WALFrames != 0 {
		t.Fatalf("reopen after compaction: %+v", rec)
	}
	if got := probe(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("snapshot recovery changed answers")
	}
	// And writes after the snapshot land in the post-snapshot segment.
	if err := re.Apply(db.MInsert("Likes", "u2", "t1")); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2 := openT(t, dir, Options{})
	if got := probe(t, re2); len(got) != len(want)+1 {
		t.Fatalf("post-snapshot write lost: %d answers, want %d", len(got), len(want)+1)
	}
	re2.Close()
}

func TestBackendAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	b := openSmall(t, dir, Options{Sync: SyncNever}, 256, 2048)
	if err := db.ApplyAll(b, seedMutations(120)); err != nil {
		t.Fatal(err)
	}
	if n := b.Metrics().Compactions; n == 0 {
		t.Fatal("no automatic compaction triggered")
	}
	want := probe(t, b)
	b.Close()
	re := openT(t, dir, Options{})
	if got := probe(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("auto-compacted store recovered differently")
	}
	re.Close()
}

func TestBackendTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{Sync: SyncNever})
	if err := db.ApplyAll(b, seedMutations(10)); err != nil {
		t.Fatal(err)
	}
	want := probe(t, b)
	b.Close()
	// Tear the tail: chop half of the last frame off the only segment.
	seg := filepath.Join(dir, "store", segName(1))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	re := openT(t, dir, Options{})
	rec := re.RecoveryStats()
	if !rec.TornTail {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	// The torn frame was the last index mutation; the data survived.
	if got := probe(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("torn-tail recovery changed answers")
	}
	re.Close()
	// A third open sees a clean (already truncated) log.
	re2 := openT(t, dir, Options{})
	if re2.RecoveryStats().TornTail {
		t.Fatal("tail still torn after truncating open")
	}
	re2.Close()
}

func TestBackendMidLogCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	b := openSmall(t, dir, Options{Sync: SyncNever}, 256, compactBytes)
	if err := db.ApplyAll(b, seedMutations(40)); err != nil {
		t.Fatal(err)
	}
	b.Close()
	segs, _, err := scanStoreDir(fault.OS, filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatal("need at least two segments")
	}
	// Flip a byte in the FIRST segment: not a crash artifact, must fail.
	seg := filepath.Join(dir, "store", segName(segs[0]))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption: Open returned %v, want ErrCorrupt", err)
	}
	// The message names the file and where in it the log stops parsing.
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Path != seg || !strings.Contains(err.Error(), fmt.Sprintf("%s: corrupt at offset %d", seg, ce.Offset)) {
		t.Fatalf("mid-log corruption: %v, want it to name %s and the offset", err, seg)
	}
}

func TestSessionJournalLifecycle(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{Sync: SyncNever})
	jq := func(id string) eq.Query {
		return eq.Query{
			ID:   id,
			Post: []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(id)), eq.V("y"))},
			Head: []eq.Atom{eq.NewAtom("R", eq.C(eq.Value(id)), eq.V("x"))},
			Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
		}
	}
	j1, err := b.CreateSessionJournal("room/1", true)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := b.CreateSessionJournal("other", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []stream.Event{
		{Kind: stream.JoinEvent, Query: jq("a")},
		{Kind: stream.JoinEvent, Query: jq("b")},
		{Kind: stream.LeaveEvent, ID: "a"},
	} {
		if err := j1.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j2.Append(stream.Event{Kind: stream.JoinEvent, Query: jq("z")}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Drop(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// One log: sessions leave no file of their own.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name() != "meta.json" || ents[1].Name() != "store" {
		t.Fatalf("data dir holds %v, want meta.json and store/", ents)
	}

	re := openT(t, dir, Options{})
	recovered, err := re.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d sessions, want 1 (dropped journal resurrected?)", len(recovered))
	}
	rs := recovered[0]
	if rs.Name != "room/1" || !rs.Park {
		t.Fatalf("recovered meta %q park=%v", rs.Name, rs.Park)
	}
	if len(rs.Events) != 3 || rs.Events[0].Query.ID != "a" || rs.Events[2].ID != "a" {
		t.Fatalf("recovered events %v", rs.Events)
	}
	if got := re.RecoveryStats(); got.Sessions != 1 || got.SessionEvents != 3 {
		t.Fatalf("session recovery stats %+v", got)
	}
	// The recovered journal keeps appending where it left off.
	if err := rs.Journal.Append(stream.Event{Kind: stream.JoinEvent, Query: jq("c")}); err != nil {
		t.Fatal(err)
	}
	re.Close()

	re2 := openT(t, dir, Options{})
	again, err := re2.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || len(again[0].Events) != 4 {
		t.Fatalf("second recovery: %d sessions, %d events", len(again), len(again[0].Events))
	}
	re2.Close()
}

// TestSessionJournalTornTail: a crash can tear the session frame the
// log ends in; recovery truncates it (TornTail) and keeps the events
// before it. A journal file an older data directory holds gets the same
// rule on import, counted in SessionTornTails.
func TestSessionJournalTornTail(t *testing.T) {
	q := eq.Query{
		ID:   "a",
		Post: []eq.Atom{eq.NewAtom("R", eq.C("a"), eq.V("y"))},
		Head: []eq.Atom{eq.NewAtom("R", eq.C("a"), eq.V("x"))},
		Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C("c0"))},
	}
	evs := []stream.Event{{Kind: stream.JoinEvent, Query: q}, {Kind: stream.LeaveEvent, ID: "a"}}
	recoverOne := func(dir string) (RecoveredSession, RecoveryStats) {
		t.Helper()
		re := openT(t, dir, Options{})
		defer re.Close()
		recovered, err := re.RecoverSessions()
		if err != nil || len(recovered) != 1 || len(recovered[0].Events) != 1 {
			t.Fatalf("recovered %v (%v), want one session holding the first event", recovered, err)
		}
		return recovered[0], re.RecoveryStats()
	}

	dir := t.TempDir()
	b := openT(t, dir, Options{})
	j, err := b.CreateSessionJournal("s", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	seg := filepath.Join(dir, "store", segName(1))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, rec := recoverOne(dir); !rec.TornTail || rec.SessionTornTails != 0 {
		t.Fatalf("stats %+v, want the log's torn tail", rec)
	}

	old := t.TempDir()
	openT(t, old, Options{}).Close()
	journal := frame.Append(nil, []byte(`{"name":"s"}`))
	for _, ev := range evs {
		payload, _ := json.Marshal(ev)
		journal = frame.Append(journal, payload)
	}
	if err := os.Mkdir(filepath.Join(old, "sessions"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, "sessions", "s.wal"), journal[:len(journal)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, rec := recoverOne(old); rec.TornTail || rec.SessionTornTails != 1 {
		t.Fatalf("stats %+v, want one torn journal file", rec)
	}
}

// TestSessionJournalRefusesAtomWithoutRelation: a session frame that
// checksums but holds a query no edge would have admitted — an atom
// naming no relation — is not a torn tail to truncate: recovery stops
// with an error naming the session and the atom, and the log stays.
func TestSessionJournalRefusesAtomWithoutRelation(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{})
	j, err := b.CreateSessionJournal("s", false)
	if err != nil {
		t.Fatal(err)
	}
	q := eq.Query{ID: "a", Head: []eq.Atom{eq.NewAtom("R", eq.V("x"))}, Body: []eq.Atom{eq.NewAtom("", eq.V("x"))}}
	if err := j.Append(stream.Event{Kind: stream.JoinEvent, Query: q}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	path := filepath.Join(dir, "store", segName(1))
	written, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	re := openT(t, dir, Options{})
	defer re.Close()
	_, err = re.RecoverSessions()
	if err == nil || errors.Is(err, ErrCorrupt) ||
		!strings.Contains(err.Error(), `session journal "s": decoding event`) || !strings.Contains(err.Error(), "atom without relation name") {
		t.Fatalf("recovery: %v; want the session's decoding error naming the atom", err)
	}
	if kept, err := os.Stat(path); err != nil || kept.Size() != written.Size() {
		t.Fatalf("the log was touched: %v, %v", kept, err)
	}
}

func TestBackendAbortLosesNothingBuffered(t *testing.T) {
	// Abort simulates a process crash: no final fsync, but the OS page
	// cache survives an in-process reopen, so SyncNever data is intact.
	dir := t.TempDir()
	b := openT(t, dir, Options{Sync: SyncNever})
	if err := db.ApplyAll(b, seedMutations(20)); err != nil {
		t.Fatal(err)
	}
	want := probe(t, b)
	b.Abort()
	if err := b.Apply(db.MInsert("T", "x", "y")); err == nil {
		t.Fatal("apply after abort succeeded")
	}
	re := openT(t, dir, Options{})
	if got := probe(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("abort+reopen changed answers")
	}
	re.Close()
}
