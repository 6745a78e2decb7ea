package fault

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"entangled/internal/db"
	"entangled/internal/eq"
)

func TestInjectorAfterCountSchedule(t *testing.T) {
	boom := errors.New("boom")
	inj := NewInjector(1, Rule{Op: OpSync, Path: "wal-", After: 2, Count: 2, Fault: Fault{Err: boom}})
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, inj.Decide(OpSync, "store/wal-000001.log").Err != nil)
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: fired=%v, want %v (schedule %v)", i, got[i], want[i], got)
		}
	}
	if !inj.Exhausted() {
		t.Fatalf("count-bounded rule should be exhausted after firing twice")
	}
	ops, faults := inj.Stats()
	if ops != 6 || faults != 2 {
		t.Fatalf("stats = (%d ops, %d faults), want (6, 2)", ops, faults)
	}
}

func TestInjectorPathFilterAndOpFilter(t *testing.T) {
	inj := NewInjector(1, Rule{Op: OpWrite, Path: "sessions/", Count: 1, Fault: Fault{Err: errors.New("x")}})
	if inj.Decide(OpSync, "sessions/s1.wal").Err != nil {
		t.Fatalf("wrong op must not match")
	}
	if inj.Decide(OpWrite, "store/wal-000001.log").Err != nil {
		t.Fatalf("wrong path must not match")
	}
	if inj.Decide(OpWrite, "sessions/s1.wal").Err == nil {
		t.Fatalf("matching op+path must fire")
	}
}

func TestInjectorSeededProbDeterministic(t *testing.T) {
	fire := func(seed int64) []bool {
		inj := NewInjector(seed, Rule{Op: OpQuery, Prob: 0.5, Fault: Fault{Err: errors.New("x")}})
		var out []bool
		for i := 0; i < 32; i++ {
			out = append(out, inj.Decide(OpQuery, "solve").Err != nil)
		}
		return out
	}
	a, b := fire(42), fire(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
}

func TestNilInjectorAndDisarm(t *testing.T) {
	var nilInj *Injector
	if nilInj.Decide(OpWrite, "x").Err != nil {
		t.Fatalf("nil injector must not inject")
	}
	if !nilInj.Exhausted() {
		t.Fatalf("nil injector reports exhausted")
	}
	inj := NewInjector(1, Rule{Op: OpWrite, Fault: Fault{Err: errors.New("x")}})
	inj.Disarm()
	if inj.Decide(OpWrite, "x").Err != nil {
		t.Fatalf("disarmed injector must not inject")
	}
	inj.Arm()
	if inj.Decide(OpWrite, "x").Err == nil {
		t.Fatalf("re-armed injector must inject")
	}
}

func TestFaultFSInjectsAndWrapsSentinel(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(1,
		Rule{Op: OpSync, After: 0, Count: 1, Fault: Fault{Err: syscall.EIO}},
		Rule{Op: OpRename, Count: 1, Fault: Fault{Err: syscall.ENOSPC}},
	)
	fsys := NewFS(OS, inj)
	f, err := fsys.OpenFile(filepath.Join(dir, "a.log"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	err = f.Sync()
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync error = %v, want wrapped ErrInjected+EIO", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("rule exhausted, sync should pass: %v", err)
	}
	f.Close()
	err = fsys.Rename(filepath.Join(dir, "a.log"), filepath.Join(dir, "b.log"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("rename error = %v, want ENOSPC", err)
	}
	if err := fsys.Rename(filepath.Join(dir, "a.log"), filepath.Join(dir, "b.log")); err != nil {
		t.Fatalf("second rename should pass: %v", err)
	}
}

func TestFaultFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(1, Rule{Op: OpWrite, Count: 1, Fault: Fault{Err: syscall.EIO, Torn: 3}})
	fsys := NewFS(OS, inj)
	path := filepath.Join(dir, "torn.log")
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("0123456789"))
	if err == nil {
		t.Fatalf("torn write must fail")
	}
	if n != 3 {
		t.Fatalf("torn write landed %d bytes, want 3", n)
	}
	f.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "012" {
		t.Fatalf("file holds %q, want the 3-byte prefix", got)
	}
}

func TestOSSyncDirPropagates(t *testing.T) {
	if err := OS.SyncDir(t.TempDir()); err != nil {
		t.Fatalf("syncing a real directory: %v", err)
	}
	if err := OS.SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatalf("syncing a missing directory must error")
	}
}

// echoPair runs a one-connection echo server through a fault listener
// and returns the client side.
func echoPair(t *testing.T, inj *Injector) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewListener(ln, inj)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := fl.Accept()
		if err != nil {
			return
		}
		go func() {
			defer c.Close()
			io.Copy(c, c)
		}()
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); ln.Close(); wg.Wait() })
	return c
}

func TestConnCorruptFlipsExactlyOneByte(t *testing.T) {
	inj := NewInjector(1, Rule{Op: OpConnWrite, Count: 1, Fault: Fault{Corrupt: true}})
	c := echoPair(t, inj)
	msg := []byte("abcdefgh")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	// The server's echo write is corrupted exactly once.
	diff := 0
	for i := range msg {
		if got[i] != msg[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1 (got %q)", diff, got)
	}
}

func TestConnResetFailsCall(t *testing.T) {
	inj := NewInjector(1, Rule{Op: OpConnRead, Count: 1, Fault: Fault{Err: syscall.ECONNRESET}})
	c := echoPair(t, inj)
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	// The server-side read is injected: its conn closes, so the client
	// read observes EOF/reset rather than the echo.
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err == nil {
		t.Fatalf("expected the echo to be cut by the injected reset")
	}
}

type countingStore struct {
	db.Store
	calls int
}

func (s *countingStore) Satisfiable(body []eq.Atom) (bool, error) {
	s.calls++
	return true, nil
}

func TestFaultStoreInjectsMidPlan(t *testing.T) {
	boom := errors.New("disk on fire")
	inner := &countingStore{}
	inj := NewInjector(1, Rule{Op: OpQuery, Path: "satisfiable", After: 2, Count: 1, Fault: Fault{Err: boom}})
	s := NewStore(inner, inj)
	for i := 0; i < 2; i++ {
		if _, err := s.Satisfiable(nil); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if _, err := s.Satisfiable(nil); !errors.Is(err, boom) || !errors.Is(err, ErrInjected) {
		t.Fatalf("3rd query error = %v, want injected boom", err)
	}
	if _, err := s.Satisfiable(nil); err != nil {
		t.Fatalf("4th query should pass: %v", err)
	}
	if inner.calls != 3 {
		t.Fatalf("inner saw %d calls, want 3 (injected failure never reaches it)", inner.calls)
	}
}

// TestWholeFileWriteAndTruncate drives WriteFile and the path form of
// Truncate through OS and through an injector: the passthrough writes
// and cuts the file, and a fault fails each op with the file untouched.
func TestWholeFileWriteAndTruncate(t *testing.T) {
	boom := errors.New("no space")
	for _, tc := range []struct {
		name string
		fsys FS
		fail bool
	}{
		{"os", OS, false},
		{"injector, no rule", NewFS(OS, NewInjector(1)), false},
		{"injector, failing", NewFS(OS, NewInjector(1,
			Rule{Op: OpWrite, Path: "meta", Count: 1, Fault: Fault{Err: boom}},
			Rule{Op: OpTruncate, Path: "meta", Count: 1, Fault: Fault{Err: boom}})), true},
	} {
		path := filepath.Join(t.TempDir(), "meta.json")
		if err := os.WriteFile(path, []byte("before"), 0o644); err != nil {
			t.Fatal(err)
		}
		check := func(op string, err error, want string) {
			t.Helper()
			if tc.fail != (err != nil) || (err != nil && !errors.Is(err, boom)) {
				t.Errorf("%s: %s: err %v, want failure %v", tc.name, op, err, tc.fail)
			}
			if tc.fail {
				want = "before"
			}
			if got, _ := os.ReadFile(path); string(got) != want {
				t.Errorf("%s: after %s the file holds %q, want %q", tc.name, op, got, want)
			}
		}
		check("WriteFile", tc.fsys.WriteFile(path, []byte("written"), 0o644), "written")
		check("Truncate", tc.fsys.Truncate(path, 3), "wri")
	}
}

// TestEveryFSMethod drives each FS and File method through OS, through
// an injector with no rule, and through an armed rule: the first two
// reach the file system, and the rule fails the method with an error
// wrapping both ErrInjected and its own.
func TestEveryFSMethod(t *testing.T) {
	boom := errors.New("boom")
	onFile := func(use func(File) error) func(FS, string) error {
		return func(fsys FS, path string) error {
			f, err := fsys.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			return use(f)
		}
	}
	for _, tc := range []struct {
		op   Op
		name string
		run  func(fsys FS, path string) error
	}{
		{OpRemove, "Remove", func(fsys FS, path string) error { return fsys.Remove(path) }},
		{OpMkdir, "MkdirAll", func(fsys FS, path string) error { return fsys.MkdirAll(path+".d/e", 0o755) }},
		{OpReadDir, "ReadDir", func(fsys FS, path string) error { _, err := fsys.ReadDir(filepath.Dir(path)); return err }},
		{OpRead, "ReadFile", func(fsys FS, path string) error { _, err := fsys.ReadFile(path); return err }},
		{OpSyncDir, "SyncDir", func(fsys FS, path string) error { return fsys.SyncDir(filepath.Dir(path)) }},
		{OpRead, "File.Read", onFile(func(f File) error { _, err := f.Read(make([]byte, 4)); return err })},
		{OpTruncate, "File.Truncate", onFile(func(f File) error { return f.Truncate(1) })},
	} {
		for i, fsys := range []FS{OS, NewFS(OS, NewInjector(1)), NewFS(OS, NewInjector(1, Rule{Op: tc.op, Fault: Fault{Err: boom}}))} {
			armed := i == 2
			path := filepath.Join(t.TempDir(), "f")
			if err := os.WriteFile(path, []byte("data"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := tc.run(fsys, path); armed != (err != nil) || armed && !(errors.Is(err, ErrInjected) && errors.Is(err, boom)) {
				t.Errorf("%s (rule armed %v): %v", tc.name, armed, err)
			}
		}
	}
}
