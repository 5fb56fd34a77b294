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

// TestCutFallsBetweenOperations: every image cut while another goroutine
// appends to a file and renames it back and forth holds the file under
// exactly one of its two names, with a whole number of appends.
func TestCutFallsBetweenOperations(t *testing.T) {
	r := Install(t)
	dir := t.TempDir()
	names := [2]string{filepath.Join(dir, "a"), filepath.Join(dir, "b")}
	f, err := fsys.OS.Create(names[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	chunk := bytes.Repeat([]byte("x"), 1024)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.Write(chunk); err != nil {
				t.Error(err)
				return
			}
			if err := fsys.OS.Rename(names[i%2], names[(i+1)%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }() // before f closes
	for i := 0; i < 100; i++ {
		img := r.Cut(t, dir)[0]
		entries, err := os.ReadDir(img)
		if err != nil || len(entries) != 1 {
			t.Fatalf("cut %d holds %d files (%v), want a or b", i, len(entries), err)
		}
		st, err := os.Stat(filepath.Join(img, entries[0].Name()))
		if err != nil || st.Size()%int64(len(chunk)) != 0 {
			t.Fatalf("cut %d holds part of an append (%v)", i, err)
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
	for _, c := range []struct {
		kind, glob string
		want       int
	}{
		{"create", "*.tmp", 3},
		{"create", "*.seg.tmp", 2},
		{"create", "*.seg", 0},
		{"sync", "*.tmp", 3},
		{"rename", "*.sft.tmp", 1},
		{"syncdir", filepath.Base(dir), 3},
		{"write", "?.seg.tmp", 2},
		{"truncate", "1.seg", 1},
		{"openfile", "*", 1},
		{"remove", "*", 0},
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
}
