// Package fsys is the one file-system seam under the durable layers: the
// commitlog, the segment store and the object store's local backend and
// tier manifest open, write, sync, rename, remove files and make
// directories only through OS, so a test can put a file system in its
// place (fsystest) that records or fails any of those operations and
// computes the crash states they leave. It also holds the round barrier
// they share: files written under temp names, fsynced, renamed into
// place, and their directories fsynced once; and MkdirSync, which fsyncs
// the parent of each directory it makes.
package fsys

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// File is an open file: the part of *os.File the durable layers use.
type File interface {
	io.ReadWriteSeeker
	io.ReaderAt
	io.WriterAt
	io.Closer
	Stat() (fs.FileInfo, error)
	Sync() error
	Truncate(size int64) error
}

// FS is a file system: the part of package os the durable layers use.
type FS interface {
	Open(name string) (File, error)
	Create(name string) (File, error)
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Remove(name string) error
	Rename(oldpath, newpath string) error
	MkdirAll(path string, perm fs.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
}

// OS is the file system of every durable layer: the operating system's. A
// test may replace it between stores, never while one is open.
var OS FS = osFS{}

// O_WRONLY opens a file write-only (OpenFile).
const O_WRONLY = os.O_WRONLY

type osFS struct{}

// file returns f as a File: on error a nil File, never a nil *os.File
// inside a non-nil interface.
func file(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (File, error)   { return file(os.Open(name)) }
func (osFS) Create(name string) (File, error) { return file(os.Create(name)) }
func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return file(os.OpenFile(name, flag, perm))
}
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }

// ReadFile returns the contents of the file at name.
func ReadFile(name string) ([]byte, error) {
	f, err := OS.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// WalkFiles calls fn with the path of every file under root, in lexical
// order.
func WalkFiles(root string, fn func(path string) error) error {
	entries, err := OS.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range entries {
		path := filepath.Join(root, e.Name())
		if e.IsDir() {
			err = WalkFiles(path, fn)
		} else {
			err = fn(path)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// TempExt marks a file written under a temporary name until the barrier
// of its round renames it into place. Every directory that holds such
// files sweeps leftovers at open: a *.tmp was never visible under its
// final name.
const TempExt = ".tmp"

// CreateTemp creates path's temp file for a round to fill and commit.
func CreateTemp(path string) (File, error) {
	return OS.Create(path + TempExt)
}

// WriteTemp writes data as path's temp file, unsynced, for a round to
// commit. On error no temp file is left.
func WriteTemp(path string, data []byte) error {
	f, err := CreateTemp(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		Discard(path)
	}
	return err
}

// syncWorkers bounds the concurrent fsyncs of one barrier. The gain is
// overlap of waits (the filesystem commits them as a group), not CPU.
const syncWorkers = 4

// Commit is the barrier of a durability round over files that were fully
// written and closed under path+TempExt: fsync every file, rename each to
// its final name, then fsync each distinct parent directory once. Only
// after it returns nil may the caller act on the files being durable
// (publish segments, drop memtables, append to the manifest, unlink
// inputs). On failure the remaining temp files are removed; files
// already renamed stay — they are complete, and nothing references them.
func Commit(paths []string) (err error) {
	defer func() {
		if err != nil {
			Discard(paths...)
		}
	}()
	if err := syncFiles(paths, TempExt); err != nil {
		return err
	}
	if err := Publish(paths...); err != nil {
		return err
	}
	return syncDirs(paths)
}

// Publish renames the temp file of each path to its final name, unsynced.
func Publish(paths ...string) error {
	for _, p := range paths {
		if err := OS.Rename(p+TempExt, p); err != nil {
			return err
		}
	}
	return nil
}

// Discard removes the temp files of paths that will not be committed.
func Discard(paths ...string) {
	for _, p := range paths {
		OS.Remove(p + TempExt)
	}
}

// Sync fsyncs the files at paths, then each distinct parent directory
// once.
func Sync(paths []string) error {
	if err := syncFiles(paths, ""); err != nil {
		return err
	}
	return syncDirs(paths)
}

// syncFiles fsyncs the file at each path+ext. A descriptor opened for
// reading flushes the file's dirty pages whichever descriptor wrote them.
func syncFiles(paths []string, ext string) error {
	return Parallel(len(paths), syncWorkers, func(i int) error { return SyncPath(paths[i] + ext) })
}

// SyncPath fsyncs the file or directory at path. A directory's fsync makes
// the entries created or renamed in it survive a crash.
func SyncPath(path string) error {
	f, err := OS.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// MkdirSync creates the directory path and any parents it lacks, and
// fsyncs the parent of each directory it created, so the new entries
// survive power loss. A directory that exists costs one Stat.
func MkdirSync(path string) error {
	if st, err := OS.Stat(path); err == nil && st.IsDir() {
		return nil
	}
	parent := filepath.Dir(path)
	if parent != path {
		if err := MkdirSync(parent); err != nil {
			return err
		}
	}
	if err := OS.MkdirAll(path, 0o755); err != nil {
		return err
	}
	return SyncPath(parent)
}

// Unlink removes the files at paths, then fsyncs each distinct parent
// directory once, so that power loss cannot bring them back. A file
// already gone counts as removed. On a failed removal no directory is
// synced: the caller has not removed all it asked to.
func Unlink(paths ...string) error {
	for _, p := range paths {
		if err := OS.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return syncDirs(paths)
}

// syncDirs fsyncs the parent directory of each path once.
func syncDirs(paths []string) error {
	seen := make(map[string]bool, 1)
	for _, p := range paths {
		if dir := filepath.Dir(p); !seen[dir] {
			seen[dir] = true
			if err := SyncPath(dir); err != nil {
				return err
			}
		}
	}
	return nil
}

// Parallel runs fn(0..n-1) on at most workers goroutines and returns the
// joined errors.
func Parallel(n, workers int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}
