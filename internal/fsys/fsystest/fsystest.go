// Package fsystest puts a recording, failing file system under the
// durable layers (fsys.OS) for the length of one test.
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
// path), write, sync (of a file) or syncdir.
type Op struct{ Kind, Path string }

// FS records every operation on the file system it wraps and fails those
// its rule picks. A failed write is short, as on a full disk: half lands.
type FS struct {
	fsys.FS
	mu   sync.Mutex
	ops  []Op
	rule func(Op) error
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
func (r *FS) Fail(rule func(Op) error) { r.mu.Lock(); r.rule = rule; r.mu.Unlock() }

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

// do records an operation and runs op unless the rule fails it.
func (r *FS) do(kind, path string, op func() error) error {
	r.mu.Lock()
	r.ops = append(r.ops, Op{kind, path})
	rule := r.rule
	r.mu.Unlock()
	if rule != nil {
		if err := rule(Op{kind, path}); err != nil {
			return err
		}
	}
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
	ran := false
	if err = f.r.do("write", f.path, func() error { ran = true; n, err = w(p); return err }); !ran {
		n, _ = w(p[:len(p)/2])
	}
	return n, err
}

func (f *file) Sync() error {
	kind := "sync"
	if st, err := f.File.Stat(); err == nil && st.IsDir() {
		kind = "syncdir"
	}
	return f.r.do(kind, f.path, f.File.Sync)
}
