package persist

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"entangled/internal/fault"
)

// recordingFS logs, in order, every operation that decides whether a
// file is durable — creating writes, fsyncs, renames, directory fsyncs
// — as "op basename".
type recordingFS struct {
	fault.FS
	ops *[]string
}

func (r recordingFS) log(op, name string) { *r.ops = append(*r.ops, op+" "+filepath.Base(name)) }

func (r recordingFS) OpenFile(name string, flag int, perm fs.FileMode) (fault.File, error) {
	f, err := r.FS.OpenFile(name, flag, perm)
	if err != nil || flag&os.O_CREATE == 0 {
		return f, err
	}
	r.log("create", name)
	return recordingFile{File: f, fs: r, name: name}, nil
}

func (r recordingFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	r.log("writefile", name)
	return r.FS.WriteFile(name, data, perm)
}

func (r recordingFS) Rename(oldpath, newpath string) error {
	r.log("rename", oldpath)
	return r.FS.Rename(oldpath, newpath)
}

func (r recordingFS) SyncDir(name string) error {
	r.log("syncdir", name)
	return r.FS.SyncDir(name)
}

type recordingFile struct {
	fault.File
	fs   recordingFS
	name string
}

func (f recordingFile) Sync() error {
	f.fs.log("sync", f.name)
	return f.File.Sync()
}

// TestMetaWrittenDurably pins the first open of a data dir: meta.json's
// bytes reach the disk before its name does. The sequence is the
// snapshots' — temp file, fsync, rename, directory fsync; a WriteFile
// followed by SyncDir makes only the directory entry durable, and a
// power loss then leaves an empty meta.json that fails every later
// Open.
func TestMetaWrittenDurably(t *testing.T) {
	dir := t.TempDir()
	var ops []string
	b, err := Open(dir, Options{FS: recordingFS{FS: fault.OS, ops: &ops}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	at := func(op string) int { return slices.Index(ops, op) }
	create, sync, rename := at("create meta.json.tmp"), at("sync meta.json.tmp"), at("rename meta.json.tmp")
	if create < 0 || !(create < sync && sync < rename) {
		t.Fatalf("meta.json is not written as temp file, fsync, rename: %v", ops)
	}
	if after := ops[rename+1:]; !slices.Contains(after, "syncdir "+filepath.Base(dir)) {
		t.Fatalf("no directory fsync after the rename: %v", ops)
	}
	if slices.Contains(ops, "writefile meta.json") {
		t.Fatalf("meta.json still written in place: %v", ops)
	}
	if _, err := os.Stat(filepath.Join(dir, "meta.json.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}

	// A reopen reads it back and writes nothing.
	b.Close()
	ops = nil
	b2, err := Open(dir, Options{FS: recordingFS{FS: fault.OS, ops: &ops}})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if slices.ContainsFunc(ops, func(op string) bool { return filepath.Ext(op) == ".tmp" }) {
		t.Fatalf("reopen rewrote meta.json: %v", ops)
	}
}

// TestMetaSyncFailureLeavesNoMeta: when the fsync of the temp file
// fails, Open reports it and no meta.json exists — neither a full one
// the disk may not hold nor an empty one that would poison the next
// Open, which starts the data dir afresh.
func TestMetaSyncFailureLeavesNoMeta(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(1, fault.Rule{Op: fault.OpSync, Path: "meta.json", Count: 1,
		Fault: fault.Fault{Err: syscall.EIO}})
	if _, err := Open(dir, faultOpts(inj, SyncAlways)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Open with a failing meta fsync: %v, want EIO", err)
	}
	for _, name := range []string{"meta.json", "meta.json.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s exists after the failed open (stat: %v)", name, err)
		}
	}
	b, err := Open(dir, faultOpts(inj, SyncAlways))
	if err != nil {
		t.Fatalf("open after the failed one: %v", err)
	}
	defer b.Close()
	if !b.fresh {
		t.Fatal("the data dir of a failed first open is not treated as fresh")
	}
}
