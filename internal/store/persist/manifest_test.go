package persist

import (
	"archive/tar"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hpclog/internal/fsys/fsystest"
	"hpclog/internal/wal"
)

// lastManifestRecord returns the newest segment of the tier manifest's log
// in dir and the offset of its last frame: a u32 length, a u32 CRC, then
// the record.
func lastManifestRecord(t *testing.T, dir string) (string, []byte, int) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, tierManifestName, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no manifest log in %s (%v)", dir, err)
	}
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	for off := 16; off+8 <= len(data); off += 8 + int(binary.LittleEndian.Uint32(data[off:])) {
		last = off
	}
	if last < 0 {
		t.Fatalf("%s holds no record", seg)
	}
	return seg, data, last
}

// TestManifestLostRecordFailsOpen: the length of the manifest's last
// record is damaged after the stub it let the sweep write is durable.
// The wal cuts the record as a torn tail, so the stub's object has no
// entry: open fails with wal.ErrCorrupt and changes nothing, where
// sweeping the stub and deleting the object would lose the partition's
// 60 rows.
func TestManifestLostRecordFailsOpen(t *testing.T) {
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	for _, part := range []struct {
		pkey string
		rows int
	}{{"p0", 10}, {"p1", 60}} { // one sweep, one record, each
		if err := s.Flush("events", part.pkey, testRows(part.rows, 1)); err != nil {
			t.Fatal(err)
		}
		if _, ev, err := s.TierSweep(context.Background(), true); err != nil || ev != 1 {
			t.Fatalf("sweep evicted %d: %v", ev, err)
		}
	}
	s.Close()
	seg, data, last := lastManifestRecord(t, dir)
	data[last+3] ^= 0x40 // the length now runs past the end
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStoreTiered(dir, &TierSetup{Tier: tier, Prefix: "n1"}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open after losing the last manifest record: %v, want wal.ErrCorrupt", err)
	}
	if n := len(listObjects(t, tier)); n != 2 || countFiles(t, dir, segStubExt) != 2 {
		t.Fatalf("the failed open left %d objects and %d stubs, want both of each", n, countFiles(t, dir, segStubExt))
	}
}

// TestManifestTornRecordBeforeStub: a kill -9 image after the manifest
// record of an upload, before its stub, whose record then tears (one
// flipped payload bit, nothing after it). The record was never acted on:
// the store opens, serves the segment from its local file, and a sweep
// evicts it again. The power-loss and torn states there reopen to the
// rows.
func TestManifestTornRecordBeforeStub(t *testing.T) {
	rec := fsystest.Install(t)
	dir, objDir := t.TempDir(), t.TempDir()
	s := openTiered(t, dir, newTestTier(t, objDir))
	defer s.Close()
	rows := testRows(60, 1)
	if err := s.Flush("events", "p1", rows); err != nil {
		t.Fatal(err)
	}
	img, power, err := crashBefore(t, rec, postManifest, func() error { _, _, err := s.TierSweep(context.Background(), true); return err }, dir, objDir)
	if err != nil || img == nil {
		t.Fatalf("sweep: %v; image found: %v", err, img != nil)
	}
	checkPower(t, power, func(dirs []string) (*Store, error) {
		return OpenStoreTiered(dirs[0], &TierSetup{Tier: newTestTier(t, dirs[1]), Prefix: "n1"})
	}, func(name string, r *Store) {
		if !sameRows(scanAll(t, r, "events", "p1"), rows) {
			t.Fatalf("%s: rows changed", name)
		}
	})
	imgDir, imgObj := img[0], img[1]
	seg, data, last := lastManifestRecord(t, imgDir)
	data[last+8+20] ^= 0x10
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tier := newTestTier(t, imgObj)
	r := openTiered(t, imgDir, tier)
	defer r.Close()
	segs := r.Segments("events", "p1")
	if len(segs) != 1 || segs[0].Tiered() || segs[0].Uploaded() || r.manifest.Len() != 0 {
		t.Fatalf("want one local segment and no entry, got %d segments and %d entries", len(segs), r.manifest.Len())
	}
	if !sameRows(scanAll(t, r, "events", "p1"), rows) {
		t.Fatal("rows changed")
	}
	if _, ev, err := r.TierSweep(context.Background(), true); err != nil || ev != 1 || !sameRows(scanAll(t, r, "events", "p1"), rows) {
		t.Fatalf("the sweep after recovery evicted %d: %v", ev, err)
	}
}

// untarFixture unpacks the regular files of a gzipped tarball into dst.
func untarFixture(t *testing.T, tarball, dst string) {
	t.Helper()
	f, err := os.Open(tarball)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(zr)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dst, hdr.Name)
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		data, err := io.ReadAll(tr)
		if err == nil {
			err = os.MkdirAll(filepath.Dir(path), 0o755)
		}
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestManifestCarriedOver: the predecessor manifests of the v8 store
// fixture (HPTIERM2 files) open, are carried over into logs, and reopen to
// the same entries, each naming an object of its recorded size — also
// from crash images left between moving the file aside and the log's
// image, and between the image and the file's unlink.
func TestManifestCarriedOver(t *testing.T) {
	rec := fsystest.Install(t)
	root := t.TempDir()
	untarFixture(t, filepath.Join("..", "..", "enginetest", "testdata", "v8store.tar.gz"), root)
	objDir := filepath.Join(root, "objects")
	tier := newTestTier(t, objDir)
	nodes, err := filepath.Glob(filepath.Join(root, "store", "node-*"))
	if err != nil || len(nodes) != 2 {
		t.Fatalf("fixture nodes %v (%v)", nodes, err)
	}
	open := func(node, dir string) (*Store, error) {
		return OpenStoreTiered(dir, &TierSetup{Tier: tier, Prefix: filepath.Base(node)})
	}
	for _, node := range nodes {
		pristine := filepath.Join(node, "seg")
		file, err := os.ReadFile(filepath.Join(pristine, tierManifestName))
		if err != nil || !strings.HasPrefix(string(file), "HPTIERM2") {
			t.Fatalf("%s: the fixture's manifest is not an HPTIERM2 file (%v)", node, err)
		}
		dir := t.TempDir()
		fsystest.CopyTree(t, pristine, dir)
		s, err := open(node, dir)
		if err != nil {
			t.Fatalf("%s: open: %v", node, err)
		}
		want := s.manifest.Entries()
		s.Close()
		if len(want) == 0 {
			t.Fatalf("%s: the carried-over manifest is empty", node)
		}
		for _, e := range want {
			if fi, err := os.Stat(filepath.Join(objDir, filepath.FromSlash(e.Key))); err != nil || fi.Size() != e.Size {
				t.Fatalf("%s: entry %d names %s, which is not an object of %d bytes (%v)", node, e.Seq, e.Key, e.Size, err)
			}
		}
		reopened := func(dir, when string) {
			t.Helper()
			s, err := open(node, dir)
			if err != nil {
				t.Fatalf("%s %s: reopen: %v", node, when, err)
			}
			defer s.Close()
			if got := s.manifest.Entries(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: %d entries, want the %d carried over", node, when, len(got), len(want))
			}
			if fi, err := os.Stat(filepath.Join(dir, tierManifestName)); err != nil || !fi.IsDir() {
				t.Fatalf("%s %s: the manifest is not a log directory (%v)", node, when, err)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, tierManifestName+".*")); len(left) != 0 {
				t.Fatalf("%s %s: the predecessor file stayed: %v", node, when, left)
			}
		}
		reopened(dir, "after the carry-over")

		// Crash images: a failed step leaves the disk as a crash there
		// would; the next open carries the file over again.
		for _, step := range []struct{ kind, base string }{
			{"create", "wal-0000000000000001.log"}, // moved aside, no log yet
			{"remove", tierManifestName + ".v2"},   // the image durable, the file not unlinked
		} {
			img := t.TempDir()
			fsystest.CopyTree(t, pristine, img)
			injected := errors.New("injected crash")
			rec.Fail(func(op fsystest.Op) error {
				if op.Kind == step.kind && filepath.Base(op.Path) == step.base && strings.HasPrefix(op.Path, img) {
					return injected
				}
				return nil
			})
			_, err := open(node, img)
			rec.Fail(nil)
			if !errors.Is(err, injected) {
				t.Fatalf("%s: open failing at the %s of %s: %v", node, step.kind, step.base, err)
			}
			reopened(img, "after a crash at the "+step.kind+" of "+step.base)
		}
	}
}

// TestManifestCarriedOverSweepsOrphanStub: the predecessor manifest's
// retires removed the entries before the stub, so a store one left
// mid-retire holds a stub no entry names. The open that carries its file
// over sweeps that stub, as the predecessor's open did; so does the next
// open when that one fails after the carry-over, the log holding nothing
// since. Once a record follows the carried image, such a stub fails the
// open.
func TestManifestCarriedOverSweepsOrphanStub(t *testing.T) {
	rec := fsystest.Install(t)
	root := t.TempDir()
	untarFixture(t, filepath.Join("..", "..", "enginetest", "testdata", "v8store.tar.gz"), root)
	tier := newTestTier(t, filepath.Join(root, "objects"))
	dir := t.TempDir()
	fsystest.CopyTree(t, filepath.Join(root, "store", "node-store01", "seg"), dir)
	stub, err := os.ReadFile(filepath.Join(dir, "00000000000000000001"+segStubExt))
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "00000000000000000099"+segStubExt)
	plant := func() {
		t.Helper()
		if err := os.WriteFile(orphan, stub, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	open := func() (*Store, error) {
		return OpenStoreTiered(dir, &TierSetup{Tier: tier, Prefix: "node-store01"})
	}
	plant()
	injected := errors.New("injected crash")
	rec.Fail(func(op fsystest.Op) error {
		if op.Kind == "remove" && op.Path == orphan {
			return injected
		}
		return nil
	})
	_, err = open()
	rec.Fail(nil)
	if !errors.Is(err, injected) {
		t.Fatalf("open failing at the orphan stub's unlink: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, tierManifestName+".*")); len(left) != 0 {
		t.Fatalf("the failed open did not finish the carry-over: %v", left)
	}
	s, err := open()
	if err != nil {
		t.Fatalf("the open after: %v", err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the orphan stub stayed (%v)", err)
	}
	if err := s.Flush("events", "px", testRows(10, 1)); err != nil {
		t.Fatal(err)
	}
	if _, ev, err := s.TierSweep(context.Background(), true); err != nil || ev == 0 {
		t.Fatalf("sweep evicted %d: %v", ev, err)
	}
	s.Close()
	plant()
	if _, err := open(); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("an orphan stub after a manifest write: %v, want wal.ErrCorrupt", err)
	}
}

// TestFaultStubUnlinkKeepsEntries: no stub outlives its entries. A
// compaction that retires an evicted section whose stub fails to unlink
// keeps the section's manifest entry and its object; so does an open
// whose sweep of that stale entry fails the same way. The open after
// that drops the entry, the stub and the object, and pa reads its merge.
func TestFaultStubUnlinkKeepsEntries(t *testing.T) {
	rec := fsystest.Install(t)
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	defer func() { s.Close() }()
	rows := testRows(300, 1)
	for _, pkey := range []string{"pa", "pb"} {
		if err := s.Flush("events", pkey, rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, ev, err := s.TierSweep(context.Background(), true); err != nil || ev != 2 {
		t.Fatalf("sweep evicted %d: %v", ev, err)
	}
	want := overwrite(t, s, "pa", 10, 5000, rows)
	stub := s.keyStub(s.Segments("events", "pa")[0].TierKey())
	injected := errors.New("injected unlink failure")
	failStub := func(op fsystest.Op) error {
		if op.Kind == "remove" && op.Path == stub {
			return injected
		}
		return nil
	}
	held := func(when string, entries, objects int) {
		t.Helper()
		_, err := os.Stat(stub)
		if s.manifest.Len() != entries || len(listObjects(t, tier)) != objects || (entries == 2) != (err == nil) {
			t.Fatalf("%s: %d entries, %d objects, stub %v; want %d entries and %d objects", when, s.manifest.Len(), len(listObjects(t, tier)), err, entries, objects)
		}
	}
	rec.Fail(failStub)
	did, err := s.CompactPartition("events", "pa", 1)
	rec.Fail(nil)
	if !did || !errors.Is(err, injected) {
		t.Fatalf("compact pa under a failing stub unlink: %v %v", did, err)
	}
	held("after the compaction", 2, 2)
	s.Close()
	rec.Fail(failStub)
	s = openTiered(t, dir, tier)
	rec.Fail(nil)
	held("after an open whose sweep failed", 2, 2)
	s.Close()
	s = openTiered(t, dir, tier)
	held("after the next open", 1, 1)
	if !sameRows(mergedRows(t, s, "pa"), want) {
		t.Fatal("pa rows changed")
	}
}
