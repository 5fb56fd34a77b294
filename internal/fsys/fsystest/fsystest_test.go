package fsystest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hpclog/internal/fsys"
)

// files returns the files of a written state's one directory by relative
// path, and its directories as "name/".
func files(t *testing.T, s State) map[string]string {
	t.Helper()
	root := s.Write(t)[0]
	got := make(map[string]string)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || path == root {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if info.IsDir() {
			got[rel+"/"] = ""
			return nil
		}
		data, err := os.ReadFile(path)
		got[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// at returns the kill -9 and the power-loss state of dir after every
// operation recorded so far.
func at(t *testing.T, r *FS, dir string) (kill, power map[string]string) {
	t.Helper()
	states := r.States(len(r.Ops()), 0, dir)
	return files(t, states[0]), files(t, states[1])
}

func mustCreate(t *testing.T, path string) fsys.File {
	t.Helper()
	f, err := fsys.OS.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func wantFiles(t *testing.T, what string, got map[string]string, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %q, want %q", what, got, want)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Fatalf("%s: %q, want %q", what, got, want)
		}
	}
}

// TestUnsyncedWriteLostOnPowerLoss: a write no fsync covers is in the
// kill -9 state and missing from the power-loss state, which keeps the
// bytes of the file's last fsync.
func TestUnsyncedWriteLostOnPowerLoss(t *testing.T) {
	r := Install(t)
	dir := t.TempDir()
	f := mustCreate(t, filepath.Join(dir, "log"))
	defer f.Close()
	must(t, fsys.SyncPath(dir))
	_, err := f.Write([]byte("acked "))
	must(t, err)
	must(t, f.Sync())
	_, err = f.Write([]byte("lost"))
	must(t, err)
	kill, power := at(t, r, dir)
	wantFiles(t, "kill -9", kill, map[string]string{"log": "acked lost"})
	wantFiles(t, "power loss", power, map[string]string{"log": "acked "})
}

// TestSyncThroughSecondDescriptorCounts: an fsync through a read-only
// descriptor makes the bytes another descriptor wrote durable, as
// fsys.syncFiles relies on.
func TestSyncThroughSecondDescriptorCounts(t *testing.T) {
	r := Install(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	f := mustCreate(t, path)
	_, err := f.WriteAt([]byte("round"), 0)
	must(t, err)
	must(t, f.Close())
	_, power := at(t, r, dir)
	wantFiles(t, "before any fsync", power, map[string]string{})
	must(t, fsys.Sync([]string{path})) // opens path for reading, fsyncs it and dir
	_, power = at(t, r, dir)
	wantFiles(t, "after the fsync", power, map[string]string{"seg": "round"})
}

// TestEntriesUndoneUntilDirSync: a create, rename, remove or mkdir is in
// the kill -9 state at once and in the power-loss state only once its
// parent directory is fsynced; a file there before the first operation
// is durable as found.
func TestEntriesUndoneUntilDirSync(t *testing.T) {
	dir := t.TempDir()
	must(t, os.WriteFile(filepath.Join(dir, "old"), []byte("before"), 0o644))
	r := Install(t)
	f := mustCreate(t, filepath.Join(dir, "a.tmp"))
	must(t, f.Sync())
	must(t, f.Close())
	must(t, fsys.OS.Rename(filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a")))
	must(t, fsys.OS.Remove(filepath.Join(dir, "old")))
	must(t, fsys.OS.MkdirAll(filepath.Join(dir, "d", "e"), 0o755))
	kill, power := at(t, r, dir)
	wantFiles(t, "kill -9", kill, map[string]string{"a": "", "d/": "", "d/e/": ""})
	wantFiles(t, "power loss", power, map[string]string{"old": "before"})

	must(t, fsys.SyncPath(dir))
	kill, power = at(t, r, dir)
	wantFiles(t, "power loss after the directory's fsync", power, map[string]string{"a": "", "d/": ""})
	wantFiles(t, "kill -9 after the directory's fsync", kill, map[string]string{"a": "", "d/": "", "d/e/": ""})
}

// TestStatesKeepTheirBytes: a state keeps its bytes when a later call
// builds another, also where both append to a file found on disk.
func TestStatesKeepTheirBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	must(t, os.WriteFile(path, []byte("found|"), 0o644))
	r := Install(t)
	f, err := fsys.OS.OpenFile(path, fsys.O_WRONLY, 0)
	must(t, err)
	defer f.Close()
	for _, p := range []string{"first|", "second|"} {
		_, err := f.WriteAt([]byte(p), 6)
		must(t, err)
	}
	first := r.States(2, 0, dir)[0]
	r.States(3, 0, dir)
	if got := files(t, first)["log"]; got != "found|first|" {
		t.Fatalf("the state after the first append holds %q", got)
	}
}

// TestMkdirSyncSurvivesPowerLoss: a directory fsys.MkdirSync makes is
// in the power-loss state with the record synced under it; one MkdirAll
// makes is not, and the synced record goes with it.
func TestMkdirSyncSurvivesPowerLoss(t *testing.T) {
	r := Install(t)
	for _, c := range []struct {
		name string
		mk   func(string) error
		want map[string]string
	}{
		{"MkdirSync", fsys.MkdirSync, map[string]string{"node/": "", "node/wal/": "", "node/wal/wal-1.log": "record"}},
		{"MkdirAll", func(dir string) error { return fsys.OS.MkdirAll(dir, 0o755) }, map[string]string{}},
	} {
		root := t.TempDir()
		dir := filepath.Join(root, "node", "wal")
		must(t, c.mk(dir))
		path := filepath.Join(dir, "wal-1.log")
		f := mustCreate(t, path)
		_, err := f.Write([]byte("record"))
		must(t, err)
		must(t, f.Close())
		must(t, fsys.Sync([]string{path}))
		_, power := at(t, r, root)
		wantFiles(t, c.name+", power loss", power, c.want)
	}
}

// TestTornStatesArePrefixes: a torn state holds the synced bytes and a
// prefix of the unsynced write after them, and the torn states of one
// boundary are the same on every call.
func TestTornStatesArePrefixes(t *testing.T) {
	r := Install(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	f := mustCreate(t, path)
	defer f.Close()
	must(t, fsys.SyncPath(dir))
	_, err := f.Write([]byte("synced|"))
	must(t, err)
	must(t, f.Sync())
	written := bytes.Repeat([]byte("0123456789"), 50)
	_, err = f.Write(written)
	must(t, err)
	i := len(r.Ops())
	states := r.States(i, 8, dir)
	if len(states) != 10 {
		t.Fatalf("%d states, want kill, power and 8 torn", len(states))
	}
	lens := make(map[int]bool)
	for k, s := range states[2:] {
		got := files(t, s)["log"]
		rest, ok := bytes.CutPrefix([]byte(got), []byte("synced|"))
		if s.Kind != Torn || !ok || !bytes.HasPrefix(written, rest) {
			t.Fatalf("torn state %d (%s) holds %q", k, s.Kind, got)
		}
		lens[len(rest)] = true
		if again := r.States(i, 8, dir)[2+k]; again.Digest != s.Digest {
			t.Fatalf("torn state %d differs between two calls", k)
		}
	}
	if len(lens) < 2 {
		t.Fatalf("8 torn states cut the write at %d lengths", len(lens))
	}
}

// TestStatesFallBetweenOperations: while a file is appended to and
// renamed back and forth, and other goroutines open its directory, every
// kill -9 state after its create holds the file under exactly one of its
// two names, with a whole number of appends.
func TestStatesFallBetweenOperations(t *testing.T) {
	r := Install(t)
	dir := t.TempDir()
	names := [2]string{filepath.Join(dir, "a"), filepath.Join(dir, "b")}
	f := mustCreate(t, names[0])
	defer f.Close()
	chunk := bytes.Repeat([]byte("x"), 1024)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { // a reader: its operations interleave with the writer's
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if rf, err := fsys.OS.Open(dir); err == nil {
					rf.Close()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
		if err := fsys.OS.Rename(names[i%2], names[(i+1)%2]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i := 1; i <= len(r.Ops()); i += 7 {
		got := files(t, r.States(i, 0, dir)[0])
		if len(got) != 1 {
			t.Fatalf("boundary %d holds %d files, want a or b", i, len(got))
		}
		for _, data := range got {
			if len(data)%len(chunk) != 0 {
				t.Fatalf("boundary %d holds part of an append", i)
			}
		}
	}
}

// TestCountByKindAndGlob: Count matches an operation's kind and its base
// name against a glob.
func TestCountByKindAndGlob(t *testing.T) {
	r := Install(t)
	dir := t.TempDir()
	for _, name := range []string{"1.seg", "2.seg", "3.sft"} {
		path := filepath.Join(dir, name)
		if err := fsys.WriteTemp(path, []byte(name)); err != nil {
			t.Fatal(err)
		}
		if err := fsys.Commit([]string{path}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := fsys.OS.OpenFile(filepath.Join(dir, "1.seg"), fsys.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	must(t, fsys.MkdirSync(filepath.Join(dir, "d")))
	for _, c := range []struct {
		kind, glob string
		want       int
	}{
		{"create", "*.tmp", 3},
		{"create", "*.seg.tmp", 2},
		{"create", "*.seg", 0},
		{"sync", "*.tmp", 3},
		{"rename", "*.sft.tmp", 1},
		{"syncdir", filepath.Base(dir), 4},
		{"write", "?.seg.tmp", 2},
		{"truncate", "1.seg", 1},
		{"openfile", "*", 1},
		{"remove", "*", 0},
		{"mkdir", "d", 1},
	} {
		if got := r.Count(c.kind, c.glob); got != c.want {
			t.Errorf("Count(%q, %q) = %d, want %d", c.kind, c.glob, got, c.want)
		}
	}
}

// TestFailedWriteIsShort: a write the rule fails lands half its bytes, as
// on a full disk, and returns the rule's error.
func TestFailedWriteIsShort(t *testing.T) {
	r := Install(t)
	path := filepath.Join(t.TempDir(), "f")
	f, err := fsys.OS.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	full := errors.New("injected full disk")
	r.Fail(func(op Op) error {
		if op.Kind == "write" {
			return full
		}
		return nil
	})
	if n, err := f.Write([]byte("0123456789")); n != 5 || !errors.Is(err, full) {
		t.Fatalf("failed write = %d, %v; want 5, %v", n, err, full)
	}
	r.Fail(nil)
	if data, err := os.ReadFile(path); err != nil || string(data) != "01234" {
		t.Fatalf("the file holds %q (%v), want the first half", data, err)
	}
	if kill, _ := at(t, r, filepath.Dir(path)); kill["f"] != "01234" {
		t.Fatalf("the kill -9 state holds %q, want the first half", kill["f"])
	}
}
