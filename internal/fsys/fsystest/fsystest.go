// Package fsystest records, fails and cuts images: for the length of one
// test it puts a file system under the durable layers (fsys.OS) that
// records every operation, fails those a rule picks, and copies
// directories between two operations — the crash image kill -9 leaves.
package fsystest

import (
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hpclog/internal/fsys"
)

// Op is one operation: open, create, openfile, remove, rename (of the old
// path), write, truncate, sync (of a file) or syncdir.
type Op struct{ Kind, Path string }

// FS records every operation on the file system it wraps and fails those
// its rule picks. A failed write is short, as on a full disk: half lands.
type FS struct {
	fsys.FS
	mu   sync.Mutex
	ops  []Op
	rule func(Op) error
	// cut is held for reading by each operation while it runs and for
	// writing by Cut, so an image falls between two operations.
	cut sync.RWMutex
}

// Install makes a recording FS fsys.OS until the test ends. Call it before
// the store under test opens.
func Install(t testing.TB) *FS {
	r := &FS{FS: fsys.OS}
	fsys.OS = r
	t.Cleanup(func() { fsys.OS = r.FS })
	return r
}

// Fail fails each later operation rule returns an error for (nil: none).
// The rule runs before its operation and outside any lock, so it may
// block, call Fail or Cut; operations on several goroutines call it
// concurrently.
func (r *FS) Fail(rule func(Op) error) { r.mu.Lock(); r.rule = rule; r.mu.Unlock() }

// Cut copies each of dirs into a fresh directory of t while no operation
// runs and returns the copies in order.
func (r *FS) Cut(t testing.TB, dirs ...string) []string {
	t.Helper()
	r.cut.Lock()
	defer r.cut.Unlock()
	imgs := make([]string, len(dirs))
	for i, dir := range dirs {
		imgs[i] = t.TempDir()
		if err := os.CopyFS(imgs[i], os.DirFS(dir)); err != nil {
			t.Errorf("cut %s: %v", dir, err) // not Fatal: a rule runs on the store's goroutines
		}
	}
	return imgs
}

// CopyTree copies the directory src into dst, past the recording FS.
func CopyTree(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
}

// CommitStage returns the stage the commit (fsys.Commit) of the temp
// file tmp has reached when op begins, if op is the step that ends it:
// "written" at the file's fsync, "synced" at its rename and "renamed" at
// the fsync of its directory; else "". An image cut before op shows the
// stage. The directory's fsync may be another commit's: the caller takes
// it only once the rename has passed.
func CommitStage(op Op, tmp string) string {
	switch {
	case op.Kind == "sync" && op.Path == tmp:
		return "written"
	case op.Kind == "rename" && op.Path == tmp:
		return "synced"
	case op.Kind == "syncdir" && op.Path == filepath.Dir(tmp):
		return "renamed"
	}
	return ""
}

// Count returns how many operations of kind were recorded on paths whose
// base name matches glob.
func (r *FS) Count(kind, glob string) (n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, op := range r.ops {
		if ok, _ := filepath.Match(glob, filepath.Base(op.Path)); ok && op.Kind == kind {
			n++
		}
	}
	return n
}

// record records an operation and returns the error its rule fails it
// with.
func (r *FS) record(kind, path string) error {
	r.mu.Lock()
	r.ops = append(r.ops, Op{kind, path})
	rule := r.rule
	r.mu.Unlock()
	if rule == nil {
		return nil
	}
	return rule(Op{kind, path})
}

// do records an operation and runs op, outside any cut, unless the rule
// fails it.
func (r *FS) do(kind, path string, op func() error) error {
	if err := r.record(kind, path); err != nil {
		return err
	}
	r.cut.RLock()
	defer r.cut.RUnlock()
	return op()
}

func (r *FS) Open(name string) (fsys.File, error) { return r.open("open", name, os.O_RDONLY, 0) }
func (r *FS) Create(name string) (fsys.File, error) {
	return r.open("create", name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
}
func (r *FS) OpenFile(name string, flag int, perm fs.FileMode) (fsys.File, error) {
	return r.open("openfile", name, flag, perm)
}
func (r *FS) Remove(name string) error {
	return r.do("remove", name, func() error { return r.FS.Remove(name) })
}
func (r *FS) Rename(from, to string) error {
	return r.do("rename", from, func() error { return r.FS.Rename(from, to) })
}

func (r *FS) open(kind, name string, flag int, perm fs.FileMode) (f fsys.File, err error) {
	if err = r.do(kind, name, func() error { f, err = r.FS.OpenFile(name, flag, perm); return err }); err != nil {
		return nil, err
	}
	return &file{f, r, name}, nil
}

type file struct {
	fsys.File
	r    *FS
	path string
}

func (f *file) Write(p []byte) (int, error) { return f.write(p, f.File.Write) }
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	return f.write(p, func(b []byte) (int, error) { return f.File.WriteAt(b, off) })
}

func (f *file) write(p []byte, w func([]byte) (int, error)) (n int, err error) {
	if err = f.r.record("write", f.path); err != nil {
		p = p[:len(p)/2]
	}
	f.r.cut.RLock()
	defer f.r.cut.RUnlock()
	n, werr := w(p)
	if err == nil {
		err = werr
	}
	return n, err
}

func (f *file) Truncate(size int64) error {
	return f.r.do("truncate", f.path, func() error { return f.File.Truncate(size) })
}

func (f *file) Sync() error {
	kind := "sync"
	if st, err := f.File.Stat(); err == nil && st.IsDir() {
		kind = "syncdir"
	}
	return f.r.do(kind, f.path, f.File.Sync)
}
