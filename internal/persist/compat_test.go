package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
	"entangled/internal/fault"
	"entangled/internal/stream"
)

// compatChurn is the session whose journal testdata/ holds as commit
// 6038a32 wrote it: 240 seeded events — joins (some parked as unsafe,
// some with a body no row satisfies) and leaves — of which the ones a
// session admits or parks are journalled, as the server does.
func compatChurn(store db.Store) []stream.Event {
	rng := rand.New(rand.NewSource(24))
	user := func() eq.Term { return eq.C(eq.Value("u" + strconv.Itoa(rng.Intn(20)))) }
	s := stream.New(store, stream.Options{ParkUnsafe: true, CompactAfter: -1})
	var live []string
	var journalled []stream.Event
	for n := 0; n < 240; n++ {
		var ev stream.Event
		if len(live) > 0 && rng.Intn(5) < 2 {
			k := rng.Intn(len(live))
			ev = stream.Event{Kind: stream.LeaveEvent, ID: live[k]}
			live = append(live[:k], live[k+1:]...)
		} else {
			val := "c" + strconv.Itoa(rng.Intn(8)) // seedMutations files c0..c6
			q := eq.Query{
				ID:   "q" + strconv.Itoa(n),
				Head: []eq.Atom{eq.NewAtom("R", user(), eq.V("x"))},
				Body: []eq.Atom{eq.NewAtom("T", eq.V("x"), eq.C(eq.Value(val)))},
			}
			for p := rng.Intn(3); p > 0; p-- {
				q.Post = append(q.Post, eq.NewAtom("R", user(), eq.V("y"+strconv.Itoa(p))))
			}
			ev = stream.Event{Kind: stream.JoinEvent, Query: q}
		}
		up, _ := s.Apply(ev)
		if up.Admitted && ev.Kind == stream.JoinEvent {
			live = append(live, ev.Query.ID)
		}
		live = append(live, up.AdmittedParked...)
		if up.Admitted || up.Parked {
			journalled = append(journalled, ev)
		}
	}
	return journalled
}

// TestJournalFromBeforeSerialsReplays holds the durable tier to the
// change that made compaction free and to the change that moved every
// session into the one log. A journal holds events and nothing of how
// the coordinator numbers them, so (1) the event part of every session
// frame today's code writes for the same session is the payload of the
// frame commit 6038a32 wrote, frame for frame, and (2) that commit's
// file, found as sessions/compat.wal in a data directory, is imported
// by Open and replays — under a threshold that compacts after every
// departure, the default, and none — to the status, totals included,
// that 6038a32 itself recovered with compaction off; a second Open
// finds no sessions/ left and recovers the same. (With compaction on,
// 6038a32's totals also counted each compaction's re-solve; that cost
// is what went.) Both files were written by this test's own steps run
// in a checkout of 6038a32: the journal is sessions/compat.wal, the
// status the CompactAfter -1 replay's JSON and a newline.
func TestJournalFromBeforeSerialsReplays(t *testing.T) {
	const fixture = "testdata/journal_6038a32"
	parent, err := os.ReadFile(fixture + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fixture + ".status.json")
	if err != nil {
		t.Fatal(err)
	}
	var parentFrames [][]byte
	if _, _, err := ReplayFrames(bytes.NewReader(parent), func(p []byte) error {
		parentFrames = append(parentFrames, bytes.Clone(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	seeded := func() string {
		dir := t.TempDir()
		b := openT(t, dir, Options{Sync: SyncNever})
		if err := db.ApplyAll(b, seedMutations(40)); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	dir := seeded()
	b := openT(t, dir, Options{Sync: SyncNever})
	j, err := b.CreateSessionJournal("compat", true)
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	for _, ev := range compatChurn(b) {
		if ev.Kind == stream.LeaveEvent {
			leaves++
		}
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if leaves <= stream.DefaultCompactAfter {
		t.Fatalf("%d departures journalled: the default threshold never fires", leaves)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	var events [][]byte
	if _, _, err := replayFile(fault.OS, filepath.Join(dir, "store", segName(2)), func(p []byte) error {
		if kindOf(p) == kindSession {
			if tag, _, body, err := parseSession(p); err != nil || tag == tagEvent {
				events = append(events, bytes.Clone(body))
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(parentFrames)-1 {
		t.Fatalf("the log holds %d events of the session, 6038a32's journal %d", len(events), len(parentFrames)-1)
	}
	for i, ev := range events {
		if !bytes.Equal(ev, parentFrames[i+1]) {
			t.Fatalf("event %d is\n%s\nwhere 6038a32 wrote\n%s", i, ev, parentFrames[i+1])
		}
	}

	dir = seeded()
	if err := os.Mkdir(filepath.Join(dir, "sessions"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sessions", "compat.wal"), parent, 0o644); err != nil {
		t.Fatal(err)
	}
	for open := 1; open <= 2; open++ {
		re := openT(t, dir, Options{})
		recovered, err := re.RecoverSessions()
		if err != nil || len(recovered) != 1 || recovered[0].Name != "compat" {
			t.Fatalf("open %d: recovered %v, err %v", open, recovered, err)
		}
		for _, compactAfter := range []int{-1, 1, 0} {
			s := stream.New(re, stream.Options{ParkUnsafe: recovered[0].Park, CompactAfter: compactAfter})
			for _, ev := range recovered[0].Events {
				s.Apply(ev) // outcomes are the journal's: admitted or parked
			}
			st, err := s.Status(true)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(got, '\n'), want) {
				t.Fatalf("open %d, CompactAfter %d: recovered status\n%s\nwant, as 6038a32 recovered it,\n%s", open, compactAfter, got, want)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "sessions")); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("open %d left sessions/ behind: %v", open, err)
		}
	}
}
