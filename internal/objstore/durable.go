package objstore

import (
	"errors"
	"os"
	"path/filepath"
	"sync"

	"hpclog/internal/obs"
)

// IO counts every durability operation the segment store and the tier
// issue: file creates, file fsyncs, directory fsyncs, and tier-manifest
// writes (one per appended record or snapshot rewrite). It is the one seam
// all of them go through, so a budget test can assert "a flush round of N
// segments creates one file and costs one directory fsync" from deltas of
// these counters.
var IO struct {
	Creates, FileSyncs, DirSyncs, ManifestWrites obs.Counter
}

// TempExt marks a file written under a temporary name until the barrier
// of its round renames it into place. Every directory that holds such
// files sweeps leftovers at open: a *.tmp was never visible under its
// final name.
const TempExt = ".tmp"

// CreateTemp creates path's temp file for a round to fill and commit. It
// and WriteTemp create every file, so IO.Creates counts them all.
func CreateTemp(path string) (*os.File, error) {
	IO.Creates.Inc()
	return os.Create(path + TempExt)
}

// WriteTemp writes data as path's temp file, unsynced, for a round to
// commit. On error no temp file is left.
func WriteTemp(path string, data []byte) error {
	IO.Creates.Inc()
	err := os.WriteFile(path+TempExt, data, 0o644)
	if err != nil {
		os.Remove(path + TempExt)
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
// inputs). stage, when non-nil, is called with "synced" after the file
// fsyncs and "renamed" after the renames. On failure the remaining temp
// files are removed; files already renamed stay — they are complete, and
// nothing references them.
func Commit(paths []string, stage func(string)) (err error) {
	defer func() {
		if err != nil {
			Discard(paths)
		}
	}()
	if err := Parallel(len(paths), syncWorkers, func(i int) error { return syncPath(paths[i] + TempExt) }); err != nil {
		return err
	}
	if stage != nil {
		stage("synced")
	}
	dirs := make([]string, len(paths))
	for i, p := range paths {
		if err := os.Rename(p+TempExt, p); err != nil {
			return err
		}
		dirs[i] = filepath.Dir(p)
	}
	if stage != nil {
		stage("renamed")
	}
	return syncDirs(dirs)
}

// Discard removes the temp files of paths that will not be committed.
func Discard(paths []string) {
	for _, p := range paths {
		os.Remove(p + TempExt)
	}
}

// syncPath fsyncs the file at path. A descriptor opened for reading
// flushes the file's dirty pages whichever descriptor wrote them.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return syncFile(f)
}

// syncFile fsyncs f.
func syncFile(f *os.File) error {
	IO.FileSyncs.Inc()
	return f.Sync()
}

// syncDir fsyncs a directory so freshly renamed or created entries
// survive a crash.
func syncDir(dir string) error {
	IO.DirSyncs.Inc()
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// syncDirs fsyncs each distinct directory of dirs once.
func syncDirs(dirs []string) error {
	seen := make(map[string]bool, 1)
	for _, d := range dirs {
		if seen[d] {
			continue
		}
		seen[d] = true
		if err := syncDir(d); err != nil {
			return err
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
