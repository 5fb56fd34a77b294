package objstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hpclog/internal/fsys"
)

// testObjectStore is the conformance suite both backends must pass.
func testObjectStore(t *testing.T, s ObjectStore) {
	t.Helper()
	ctx := context.Background()
	body := []byte("0123456789abcdefghij")

	if err := s.Put(ctx, "node-0/a.seg", bytes.NewReader(body), int64(len(body))); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "node-0/b.seg", bytes.NewReader(body[:4]), 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "node-1/c.seg", bytes.NewReader(body[:2]), 2); err != nil {
		t.Fatal(err)
	}

	if n, err := s.Stat(ctx, "node-0/a.seg"); err != nil || n != int64(len(body)) {
		t.Fatalf("stat: %d %v", n, err)
	}
	if _, err := s.Stat(ctx, "node-0/missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat missing: %v", err)
	}

	got, err := s.ReadRange(ctx, "node-0/a.seg", 5, 10)
	if err != nil || string(got) != "56789abcde" {
		t.Fatalf("range: %q %v", got, err)
	}
	if got, err := s.ReadRange(ctx, "node-0/a.seg", 0, int64(len(body))); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("full range: %q %v", got, err)
	}
	if _, err := s.ReadRange(ctx, "node-0/missing", 0, 1); !errors.Is(err, ErrNotExist) {
		t.Fatalf("range missing: %v", err)
	}

	keys, err := s.List(ctx, "node-0/")
	if err != nil || !reflect.DeepEqual(keys, []string{"node-0/a.seg", "node-0/b.seg"}) {
		t.Fatalf("list node-0/: %v %v", keys, err)
	}
	all, err := s.List(ctx, "")
	if err != nil || len(all) != 3 {
		t.Fatalf("list all: %v %v", all, err)
	}

	if err := s.Delete(ctx, "node-0/b.seg"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "node-0/b.seg"); err != nil { // idempotent
		t.Fatalf("re-delete: %v", err)
	}
	if _, err := s.Stat(ctx, "node-0/b.seg"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("deleted object still visible: %v", err)
	}
	// A read after a Put over a key, or after its Delete, sees what the
	// store holds then, not what an earlier read of the key saw.
	if err := s.Put(ctx, "node-0/a.seg", bytes.NewReader(body[10:]), 10); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReadRange(ctx, "node-0/a.seg", 0, 10); err != nil || !bytes.Equal(got, body[10:]) {
		t.Fatalf("range of a replaced object: %q %v", got, err)
	}
	if err := s.Delete(ctx, "node-0/a.seg"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadRange(ctx, "node-0/a.seg", 0, 1); !errors.Is(err, ErrNotExist) {
		t.Fatalf("range of a deleted object: %v", err)
	}
	// Reads racing a Delete: once it returns, no read sees the object.
	for round := 0; round < 20; round++ {
		if err := s.Put(ctx, "node-0/d.seg", bytes.NewReader(body), int64(len(body))); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var started, done sync.WaitGroup
		for r := 0; r < 4; r++ {
			started.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				for first := true; ; first = false {
					got, err := s.ReadRange(ctx, "node-0/d.seg", 0, 4)
					if err == nil && string(got) != "0123" || err != nil && !errors.Is(err, ErrNotExist) {
						t.Errorf("racing read: %q %v", got, err)
					}
					if first {
						started.Done()
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		started.Wait()
		err := s.Delete(ctx, "node-0/d.seg")
		_, rerr := s.ReadRange(ctx, "node-0/d.seg", 0, 1)
		close(stop)
		done.Wait()
		if err != nil || !errors.Is(rerr, ErrNotExist) {
			t.Fatalf("round %d: delete %v, then a read %v", round, err, rerr)
		}
		if _, err := s.ReadRange(ctx, "node-0/d.seg", 0, 1); !errors.Is(err, ErrNotExist) {
			t.Fatalf("round %d: a deleted object read once its readers stopped: %v", round, err)
		}
	}

	// Hostile keys are rejected, not resolved.
	for _, bad := range []string{"", "/abs", "a//b", "../escape", "a/../../b", "a/./b"} {
		if _, err := s.ReadRange(ctx, bad, 0, 1); err == nil || errors.Is(err, ErrNotExist) {
			t.Fatalf("key %q not rejected: %v", bad, err)
		}
		if err := s.Put(ctx, bad, bytes.NewReader(nil), 0); err == nil {
			t.Fatalf("put of key %q accepted", bad)
		}
	}
}

func TestFSConformance(t *testing.T) {
	s, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testObjectStore(t, s)
}

// TestFSReadsMoreObjectsThanItKeepsOpen: reads of more objects than the
// store keeps open, each twice, read every object right.
func TestFSReadsMoreObjectsThanItKeepsOpen(t *testing.T) {
	s, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := func(i int) string { return fmt.Sprintf("node-%d/%d.seg", i%3, i) }
	for i := 0; i < maxOpenObjects+40; i++ {
		body := fmt.Sprintf("object %04d", i)
		if err := s.Put(ctx, key(i), strings.NewReader(body), int64(len(body))); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < maxOpenObjects+40; i++ {
			if got, err := s.ReadRange(ctx, key(i), 7, 4); err != nil || string(got) != fmt.Sprintf("%04d", i) {
				t.Fatalf("pass %d, object %d: %q %v", pass, i, got, err)
			}
		}
	}
	if len(s.open) > maxOpenObjects {
		t.Fatalf("%d objects kept open, at most %d", len(s.open), maxOpenObjects)
	}
}

func TestFSPutAtomicAndTempSweep(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A short reader (simulated crash mid-upload) must leave no object
	// and no visible key.
	if err := s.Put(ctx, "x/torn.seg", strings.NewReader("abc"), 10); err == nil {
		t.Fatal("short put accepted")
	}
	if _, err := s.Stat(ctx, "x/torn.seg"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("torn put visible: %v", err)
	}

	// Plant a stray tmp file (crash between create and rename): reopen
	// sweeps it, and List never shows it.
	stray := filepath.Join(dir, "x", "stray.seg"+fsys.TempExt)
	os.MkdirAll(filepath.Dir(stray), 0o755)
	if err := os.WriteFile(stray, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if keys, _ := s.List(ctx, ""); len(keys) != 0 {
		t.Fatalf("tmp leaked into list: %v", keys)
	}
	if _, err := OpenFS(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("reopen did not sweep tmp leftover")
	}
}
