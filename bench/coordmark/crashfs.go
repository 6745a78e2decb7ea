package main

import (
	"io"
	"io/fs"
	"os"
	"sync"
	"time"

	"entangled/internal/fault"
)

// crashFS is the benchmark's fault.FS decorator. It does two jobs at
// the persist.Options.FS seam:
//
//   - It tracks, per file, how many bytes a completed Sync covers, so
//     that after a simulated crash (Backend.Abort, which only closes
//     handles) discardUnsynced can truncate every file back to its
//     synced length. Killing a process leaves the page cache intact;
//     without this step "recovered == acknowledged" would be checked
//     against bytes a power cut would have lost.
//   - In a traced run it times every write and fsync and counts the
//     bytes handed to the filesystem.
//
// Files written whole through WriteFile (persist's meta.json) are
// treated as durable at once: persist follows them with a directory
// sync only, and modelling directory-entry loss is outside this
// decorator's scope.
type crashFS struct {
	inner fault.FS
	t     *tracer // nil when untraced

	mu    sync.Mutex
	files map[string]*fileState
}

// fileState is one path's length bookkeeping; shared by every handle
// open on the path.
type fileState struct {
	size   int64
	synced int64
}

func newCrashFS(t *tracer) *crashFS {
	return &crashFS{inner: fault.OS, t: t, files: map[string]*fileState{}}
}

// discardUnsynced truncates every tracked file to the length its last
// completed Sync covered and reports how many bytes that dropped.
func (c *crashFS) discardUnsynced() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var dropped int64
	for path, st := range c.files {
		if st.size <= st.synced {
			continue
		}
		if err := c.inner.Truncate(path, st.synced); err != nil {
			return dropped, err
		}
		dropped += st.size - st.synced
		st.size = st.synced
	}
	return dropped, nil
}

func (c *crashFS) OpenFile(name string, flag int, perm fs.FileMode) (fault.File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	st := c.files[name]
	if st == nil {
		// First sight of the path in this process: whatever it already
		// holds survived the previous (simulated) crash, so it is synced.
		end, serr := f.Seek(0, io.SeekEnd)
		if serr == nil {
			_, serr = f.Seek(0, io.SeekStart)
		}
		if serr != nil {
			c.mu.Unlock()
			f.Close()
			return nil, serr
		}
		st = &fileState{size: end, synced: end}
		c.files[name] = st
	}
	if flag&os.O_TRUNC != 0 {
		st.size, st.synced = 0, 0
	}
	c.mu.Unlock()
	return &crashFile{File: f, fs: c, st: st}, nil
}

func (c *crashFS) Rename(oldpath, newpath string) error {
	if err := c.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	c.mu.Lock()
	if st, ok := c.files[oldpath]; ok {
		delete(c.files, oldpath)
		c.files[newpath] = st
	}
	c.mu.Unlock()
	return nil
}

func (c *crashFS) Remove(name string) error {
	c.mu.Lock()
	delete(c.files, name)
	c.mu.Unlock()
	return c.inner.Remove(name)
}

func (c *crashFS) Truncate(name string, size int64) error {
	if err := c.inner.Truncate(name, size); err != nil {
		return err
	}
	c.mu.Lock()
	if st, ok := c.files[name]; ok {
		st.truncate(size)
	}
	c.mu.Unlock()
	return nil
}

func (c *crashFS) MkdirAll(path string, perm fs.FileMode) error { return c.inner.MkdirAll(path, perm) }
func (c *crashFS) ReadDir(name string) ([]fs.DirEntry, error)   { return c.inner.ReadDir(name) }
func (c *crashFS) ReadFile(name string) ([]byte, error)         { return c.inner.ReadFile(name) }
func (c *crashFS) SyncDir(name string) error                    { return c.inner.SyncDir(name) }

func (c *crashFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	if err := c.inner.WriteFile(name, data, perm); err != nil {
		return err
	}
	c.mu.Lock()
	c.files[name] = &fileState{size: int64(len(data)), synced: int64(len(data))}
	c.mu.Unlock()
	return nil
}

func (st *fileState) truncate(size int64) {
	st.size = size
	if st.synced > size {
		st.synced = size
	}
}

// crashFile follows one handle's offset so a write's extent is known
// without asking the kernel.
type crashFile struct {
	fault.File
	fs  *crashFS
	st  *fileState
	pos int64
}

func (f *crashFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.pos += int64(n)
	return n, err
}

func (f *crashFile) Seek(offset int64, whence int) (int64, error) {
	pos, err := f.File.Seek(offset, whence)
	if err == nil {
		f.pos = pos
	}
	return pos, err
}

func (f *crashFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	if f.fs.t.active() {
		f.fs.t.leaf(&f.fs.t.fsWrite, "persist.write", start, time.Since(start))
		f.fs.t.fsBytes.Add(int64(n))
	}
	f.pos += int64(n)
	f.fs.mu.Lock()
	if f.pos > f.st.size {
		f.st.size = f.pos
	}
	f.fs.mu.Unlock()
	return n, err
}

func (f *crashFile) Sync() error {
	// The length a sync covers is the one written before it started.
	f.fs.mu.Lock()
	size := f.st.size
	f.fs.mu.Unlock()
	start := time.Now()
	err := f.File.Sync()
	if f.fs.t.active() {
		f.fs.t.leaf(&f.fs.t.fsSync, "persist.fsync", start, time.Since(start))
	}
	if err == nil {
		f.fs.mu.Lock()
		if size > f.st.synced && size <= f.st.size {
			f.st.synced = size
		}
		f.fs.mu.Unlock()
	}
	return err
}

func (f *crashFile) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.st.truncate(size)
	f.fs.mu.Unlock()
	return nil
}
