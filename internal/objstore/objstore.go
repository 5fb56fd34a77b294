// Package objstore is the tiered-storage layer below the segment store:
// an ObjectStore abstraction over a durable, flat object namespace (a
// local directory for tests and single-machine deployments, an
// S3/MinIO-compatible HTTP service for real clusters), plus the pieces
// the tiering policy is built from — a Merkle tree over segment blocks
// (integrity proofs for every fetched block), a crash-safe per-node
// manifest of uploaded segments, a bounded refcounted block cache with
// single-flight fetches, and the Tier front door the segment store reads
// evicted blocks through.
//
// Objects are immutable once written: a data file (the segments of one
// round, as sections) is uploaded exactly once under a key derived from
// its name. Once compaction has retired the last of its sections the
// manifest names, the object is deleted when the last reader of a retired
// section lets go of it; at open, every object the manifest does not name
// is collected. There is no overwrite path, so the backends need no
// versioning or conditional writes.
package objstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hpclog/internal/fsys"
)

// ErrNotExist marks a read of an object key that is absent from the
// store. Callers distinguish it from transport failures: a missing
// object that the manifest references is data loss, a failed HTTP dial
// is retryable.
var ErrNotExist = errors.New("objstore: object does not exist")

// ErrIntegrity marks bytes that failed Merkle/checksum verification: the
// object store returned data, but not the data that was uploaded.
// Readers treat it as replica-fallback-able corruption, never as a
// transient fault.
var ErrIntegrity = errors.New("objstore: integrity verification failed")

// ObjectStore is a minimal immutable object API: whole-object put,
// ranged get, stat, delete, list. Implementations must make Put atomic —
// a reader never sees a partial object under key — and Sync durable: once
// Sync has returned for a key, the key resolves to the complete object
// even across a crash. A crash between Put and Sync may leave anything
// under the key; the tier records an object in its manifest only after
// Sync and re-uploads to the same key otherwise.
type ObjectStore interface {
	// Put stores size bytes from r under key, atomically.
	Put(ctx context.Context, key string, r io.Reader, size int64) error
	// Sync makes every listed, already Put object durable with one barrier.
	Sync(ctx context.Context, keys []string) error
	// ReadRange returns n bytes of key starting at off.
	ReadRange(ctx context.Context, key string, off, n int64) ([]byte, error)
	// Stat returns the object's size, or ErrNotExist.
	Stat(ctx context.Context, key string) (int64, error)
	// Delete removes key; deleting an absent key is not an error.
	Delete(ctx context.Context, key string) error
	// List returns the keys under prefix, sorted.
	List(ctx context.Context, prefix string) ([]string, error)
}

// validKey rejects keys that could escape a filesystem root or confuse
// an HTTP path: empty, absolute, or dot-dot-traversing.
func validKey(key string) error {
	if key == "" || strings.HasPrefix(key, "/") {
		return fmt.Errorf("objstore: invalid key %q", key)
	}
	for _, part := range strings.Split(key, "/") {
		if part == "" || part == "." || part == ".." {
			return fmt.Errorf("objstore: invalid key %q", key)
		}
	}
	return nil
}

// FS is the local-filesystem ObjectStore: objects are plain files under
// a root directory, keys with '/' map to subdirectories. Put writes to a
// temporary name and renames into place without syncing; Sync is the
// barrier that fsyncs a batch of objects and their directories — the same
// round discipline the segment store itself uses.
type FS struct {
	root string
	// open keeps up to maxOpenObjects objects open between range reads: a
	// scan of an evicted segment reads its object block by block. Put and
	// Delete close the key's handle; a read holds mu for reading.
	mu   sync.RWMutex
	open map[string]fsys.File
}

// maxOpenObjects bounds the file handles an FS keeps open.
const maxOpenObjects = 256

// OpenFS opens (creating if needed) a filesystem object store rooted at
// dir, sweeping temp files left by a previous crash.
func OpenFS(dir string) (*FS, error) {
	if dir == "" {
		return nil, fmt.Errorf("objstore: fs store needs a root directory")
	}
	if err := fsys.MkdirSync(dir); err != nil {
		return nil, err
	}
	// Sweep crash leftovers: a *.tmp was never visible as an object.
	fsys.WalkFiles(dir, func(path string) error {
		if strings.HasSuffix(path, fsys.TempExt) {
			fsys.OS.Remove(path)
		}
		return nil
	})
	return &FS{root: dir, open: make(map[string]fsys.File)}, nil
}

func (s *FS) path(key string) string {
	return filepath.Join(s.root, filepath.FromSlash(key))
}

// Put implements ObjectStore.
func (s *FS) Put(_ context.Context, key string, r io.Reader, size int64) error {
	if err := validKey(key); err != nil {
		return err
	}
	path := s.path(key)
	if err := fsys.MkdirSync(filepath.Dir(path)); err != nil {
		return err
	}
	f, err := fsys.CreateTemp(path)
	if err != nil {
		return err
	}
	n, err := io.Copy(f, r)
	if err == nil && n != size {
		err = fmt.Errorf("objstore: put %s: wrote %d of %d bytes", key, n, size)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Publish(path)
	}
	if err != nil {
		fsys.Discard(path)
	}
	s.forget(key)
	return err
}

// Sync implements ObjectStore: fsync every object, then each distinct
// parent directory once.
func (s *FS) Sync(_ context.Context, keys []string) error {
	paths := make([]string, len(keys))
	for i, key := range keys {
		if err := validKey(key); err != nil {
			return err
		}
		paths[i] = s.path(key)
	}
	return fsys.Sync(paths)
}

// ReadRange implements ObjectStore.
func (s *FS) ReadRange(_ context.Context, key string, off, n int64) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	for {
		s.mu.RLock()
		if f := s.open[key]; f != nil {
			_, err := f.ReadAt(buf, off)
			s.mu.RUnlock()
			if err != nil {
				return nil, fmt.Errorf("objstore: read %s [%d,+%d): %w", key, off, n, err)
			}
			return buf, nil
		}
		s.mu.RUnlock()
		if err := s.keepOpen(key); err != nil {
			return nil, err
		}
	}
}

// keepOpen opens the object at key, to stay open for the reads after.
func (s *FS) keepOpen(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open[key] != nil {
		return nil
	}
	f, err := fsys.OS.Open(s.path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %s", ErrNotExist, key)
		}
		return err
	}
	for k, old := range s.open {
		if len(s.open) < maxOpenObjects {
			break
		}
		old.Close()
		delete(s.open, k)
	}
	s.open[key] = f
	return nil
}

// forget closes the handle kept open on key, if any.
func (s *FS) forget(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.open[key]; f != nil {
		f.Close()
		delete(s.open, key)
	}
}

// Stat implements ObjectStore.
func (s *FS) Stat(_ context.Context, key string) (int64, error) {
	if err := validKey(key); err != nil {
		return 0, err
	}
	st, err := fsys.OS.Stat(s.path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, fmt.Errorf("%w: %s", ErrNotExist, key)
		}
		return 0, err
	}
	return st.Size(), nil
}

// Delete implements ObjectStore.
func (s *FS) Delete(_ context.Context, key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	// Unlink first: a read that reopens the key between the two then fails,
	// or its handle is closed by forget.
	err := fsys.OS.Remove(s.path(key))
	s.forget(key)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// List implements ObjectStore.
func (s *FS) List(_ context.Context, prefix string) ([]string, error) {
	var keys []string
	err := fsys.WalkFiles(s.root, func(path string) error {
		if strings.HasSuffix(path, fsys.TempExt) {
			return nil
		}
		rel, rerr := filepath.Rel(s.root, path)
		if rerr != nil {
			return rerr
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}
