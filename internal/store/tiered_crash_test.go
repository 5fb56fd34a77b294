package store

// Tiered-storage failure injection: a corrupted object must fail the
// Merkle check and fall back to a replica, and a kill -9 at any stage of
// the upload/eviction pipeline must lose no acked row while the manifest
// never references a half-uploaded object.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hpclog/internal/fsys"
	"hpclog/internal/fsys/fsystest"
	"hpclog/internal/objstore"
)

func tieredCrashCfg(dir, tierDir string) Config {
	cfg := crashCfg(dir)
	cfg.Tier = objstore.Config{Backend: "fs", Dir: tierDir, CacheBytes: 1 << 20}
	return cfg
}

// TestTieredCorruptionFallsBackToReplica flips one byte in every object
// of the preferred replica and asserts a consistency-One read still
// answers correctly off the other replica — the typed integrity error is
// a replica failure like any other, absorbed by the existing
// substitution path — while the verify-failure counter records the
// detection.
func TestTieredCorruptionFallsBackToReplica(t *testing.T) {
	dir, tierDir := t.TempDir(), t.TempDir()
	db, err := OpenDurable(tieredCrashCfg(dir, tierDir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	const nRows = 200
	rows := make([]Row, 0, nRows)
	for i := 0; i < nRows; i++ {
		rows = append(rows, MapRow(EncodeTS(int64(5000+i))+":src", 0, map[string]string{"i": fmt.Sprint(i)}))
	}
	if err := db.PutBatch("events", "hot", rows, All); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.TierSweep(true); err != nil {
		t.Fatal(err)
	}
	if st := db.StorageStats(); st.DiskSegments == 0 || st.TieredSegments != st.DiskSegments {
		t.Fatalf("want 100%% evicted: %d of %d", st.TieredSegments, st.DiskSegments)
	}

	// Flip a data byte in every object of the read path's first-choice
	// replica, before any block has been fetched or cached.
	first := db.Ring().Replicas("hot")[0]
	objs, err := filepath.Glob(filepath.Join(tierDir, "node-"+first, "*.seg"))
	if err != nil || len(objs) == 0 {
		t.Fatalf("no objects for preferred replica node-%s (err=%v)", first, err)
	}
	for _, p := range objs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	got, err := db.Get("events", "hot", Range{}, One)
	if err != nil {
		t.Fatalf("read with one corrupt replica: %v", err)
	}
	if len(got) != nRows {
		t.Fatalf("fallback read returned %d rows, want %d", len(got), nRows)
	}
	if db.Tier().VerifyFailures.Load() == 0 {
		t.Fatal("fallback happened without a recorded verify failure")
	}
}

// sweepImage is a crash image of the data directory and the object store.
type sweepImage struct{ stage, data, tier string }

// sweepImages runs op under rec and cuts one image of dir and tierDir at
// each stage of a tier sweep, each before an operation: pre-upload before
// the first object's temp file is created, post-upload before the next
// create or fsync in that object's directory (the next upload, or the
// objects' barrier), post-manifest before the first stub is created and
// post-stub before the first data file is removed.
func sweepImages(t *testing.T, rec *fsystest.FS, dir, tierDir string, op func() error) ([]sweepImage, error) {
	t.Helper()
	var objDir string // of the first object
	stages := []struct {
		name string
		at   func(fsystest.Op) bool
	}{
		{"pre-upload", func(op fsystest.Op) bool {
			if op.Kind != "create" || !strings.HasPrefix(op.Path, tierDir+string(filepath.Separator)) {
				return false
			}
			objDir = filepath.Dir(op.Path)
			return true
		}},
		{"post-upload", func(op fsystest.Op) bool {
			return (op.Kind == "create" || op.Kind == "sync") && filepath.Dir(op.Path) == objDir
		}},
		{"post-manifest", func(op fsystest.Op) bool {
			return op.Kind == "create" && strings.HasSuffix(op.Path, ".sft"+fsys.TempExt)
		}},
		{"post-stub", func(op fsystest.Op) bool {
			return op.Kind == "remove" && strings.HasSuffix(op.Path, ".seg") && strings.HasPrefix(op.Path, dir+string(filepath.Separator))
		}},
	}
	var mu sync.Mutex
	var images []sweepImage
	rec.Fail(func(op fsystest.Op) error {
		mu.Lock()
		defer mu.Unlock()
		if len(images) < len(stages) && stages[len(images)].at(op) {
			img := rec.Cut(t, dir, tierDir)
			images = append(images, sweepImage{stages[len(images)].name, img[0], img[1]})
		}
		return nil
	})
	err := op()
	rec.Fail(nil)
	return images, err
}

// TestTieredCrashRecovery cuts crash images at every durability boundary
// of the upload/eviction pipeline (sweepImages) and proves,
// for each: recovery loses no acked row, the manifest references only
// fully-uploaded objects, and a fresh sweep converges back to 100%
// evicted — re-uploading or re-adopting as the stage demands.
func TestTieredCrashRecovery(t *testing.T) {
	rec := fsystest.Install(t)
	dir, tierDir := t.TempDir(), t.TempDir()
	db, err := OpenDurable(tieredCrashCfg(dir, tierDir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	const batches, rowsPerBatch = 20, 10
	for b := 0; b < batches; b++ {
		var rows []Row
		for i := 0; i < rowsPerBatch; i++ {
			rows = append(rows, MapRow(EncodeTS(int64(5000+b*rowsPerBatch+i))+":src", 0, map[string]string{"batch": fmt.Sprint(b)}))
		}
		if err := db.PutBatch("events", fmt.Sprintf("part-%d", b%3), rows, All); err != nil {
			t.Fatal(err)
		}
	}

	// Capture one crash image per pipeline stage, mid-sweep: both the data
	// directory (WAL, segments, stubs, manifest) and the object root.
	var up, ev int
	images, err := sweepImages(t, rec, dir, tierDir, func() (err error) { up, ev, err = db.TierSweep(true); return err })
	if err != nil || up == 0 || ev == 0 {
		t.Fatalf("sweep: uploaded=%d evicted=%d err=%v", up, ev, err)
	}
	want := readAll(t, db, "events")
	if len(images) != 4 {
		t.Fatalf("captured %d stage images, want 4 (pre-upload post-upload post-manifest post-stub)", len(images))
	}

	for _, img := range images {
		t.Run(img.stage, func(t *testing.T) { checkTieredImage(t, img.data, img.tier, want) })
	}
}

// checkTieredImage recovers a tiered store from the image in data and
// tier and checks the crash oracle: no acked row lost, no segment served
// twice, the manifest naming only whole objects, and a forced sweep that
// finishes the job the crash interrupted — every segment evicted, every
// row still there.
func checkTieredImage(t *testing.T, data, tier string, want map[string][]Row) {
	t.Helper()
	rdb, err := OpenDurable(tieredCrashCfg(data, tier))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rdb.Close()
	if got := readAll(t, rdb, "events"); !reflect.DeepEqual(got, want) {
		t.Fatalf("lost acked rows: %d partitions vs %d", len(got), len(want))
	}
	for _, l := range rdb.SegmentInfos() {
		seen := make(map[uint64]bool)
		for _, si := range l.Segments {
			if seen[si.Seq] {
				t.Fatalf("node %s serves segment %d twice", l.Node, si.Seq)
			}
			seen[si.Seq] = true
		}
	}
	verifyTierManifests(t, data, tier)
	if _, _, err := rdb.TierSweep(true); err != nil {
		t.Fatalf("sweep after recovery: %v", err)
	}
	if st := rdb.StorageStats(); st.DiskSegments == 0 || st.TieredSegments != st.DiskSegments {
		t.Fatalf("recovery did not reconverge: %d of %d evicted", st.TieredSegments, st.DiskSegments)
	}
	verifyTierManifests(t, data, tier)
	if got := readAll(t, rdb, "events"); !reflect.DeepEqual(got, want) {
		t.Fatal("lost rows after the re-sweep")
	}
}

// verifyTierManifests asserts the crash-safety invariant: every entry in
// every node's TIER manifest names an object that exists in the store at
// exactly the recorded size — never a half-uploaded one.
func verifyTierManifests(t *testing.T, dataDir, tierDir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dataDir, "node-*", "seg", "TIER"))
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range paths {
		m, err := objstore.LoadManifest(mp)
		if err != nil {
			t.Fatalf("load %s: %v", mp, err)
		}
		entries := m.Entries()
		m.Close()
		for _, e := range entries {
			fi, err := os.Stat(filepath.Join(tierDir, filepath.FromSlash(e.Key)))
			if err != nil {
				t.Fatalf("%s references missing object %s: %v", mp, e.Key, err)
			}
			if fi.Size() != e.Size {
				t.Fatalf("%s: object %s is %d bytes, manifest says %d", mp, e.Key, fi.Size(), e.Size)
			}
		}
	}
}

// TestTieredRoundObjectCrashRecovery cuts crash images at every stage of
// the sweep of round objects — each node's data is one flush round's file
// of five partitions, uploaded as one object behind one stub — and proves
// for each what TestTieredCrashRecovery does: no acked row lost, no
// half-uploaded object referenced, no segment served twice, and a fresh
// sweep converges to one object and one stub per node.
func TestTieredRoundObjectCrashRecovery(t *testing.T) {
	rec := fsystest.Install(t)
	dir, tierDir := t.TempDir(), t.TempDir()
	cfg := tieredCrashCfg(dir, tierDir)
	cfg.FlushThreshold = 1 << 20 // no write fills a memtable: the sweep's flush is one round per node
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillDurable(t, db, "events", 5, 30)

	var ev int
	images, err := sweepImages(t, rec, dir, tierDir, func() (err error) { _, ev, err = db.TierSweep(true); return err })
	if err != nil || ev != 10 {
		t.Fatalf("sweep evicted %d segments: %v", ev, err)
	}
	want := readAll(t, db, "events")
	if len(images) != 4 {
		t.Fatalf("captured %d stage images, want 4", len(images))
	}
	for _, img := range images {
		t.Run(img.stage, func(t *testing.T) {
			rcfg := tieredCrashCfg(img.data, img.tier)
			rcfg.FlushThreshold = cfg.FlushThreshold
			rdb, err := OpenDurable(rcfg)
			if err != nil {
				t.Fatalf("recover from %s image: %v", img.stage, err)
			}
			defer rdb.Close()
			if got := readAll(t, rdb, "events"); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s image lost acked rows", img.stage)
			}
			verifyTierManifests(t, img.data, img.tier)
			if _, _, err := rdb.TierSweep(true); err != nil {
				t.Fatalf("sweep after %s recovery: %v", img.stage, err)
			}
			st := rdb.StorageStats()
			objs, _ := filepath.Glob(filepath.Join(img.tier, "node-*", "*.seg"))
			if st.DiskSegments != 10 || st.TieredSegments != 10 || st.DiskFiles != 2 || len(objs) != 2 {
				t.Fatalf("%s recovery converged to %d of %d segments tiered, %d stubs, %d objects; want 10 of 10 in 2 and 2",
					img.stage, st.TieredSegments, st.DiskSegments, st.DiskFiles, len(objs))
			}
			verifyTierManifests(t, img.data, img.tier)
			if got := readAll(t, rdb, "events"); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s image lost rows after re-sweep", img.stage)
			}
		})
	}
}

// TestCrashStatesAtEveryOperation cuts a crash image before every create,
// fsync, rename, directory fsync and remove of a flush, a compaction and
// a forced sweep of one tiered node — the states between the stages the
// round and sweep tests name, such as one commitlog segment gone and the
// next not, or a sweep batch's first data file unlinked and its second
// not — and recovers each (checkTieredImage).
// A kill -9 keeps what an fsync was about to make durable, so images
// equal byte for byte are one state, recovered once, under the first of
// their names in sort order.
func TestCrashStatesAtEveryOperation(t *testing.T) {
	rec := fsystest.Install(t)
	dir, tierDir := t.TempDir(), t.TempDir()
	cfg := tieredCrashCfg(dir, tierDir)
	cfg.Nodes, cfg.RF = 1, 1
	cfg.FlushThreshold = 1 << 20 // rounds run only when a phase calls them
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillDurable(t, db, "events", 3, 30)
	put := func(pkey string, from int) error {
		var rows []Row
		for i := from; i < from+20; i++ {
			rows = append(rows, durableRow(int64(i)))
		}
		return db.PutBatch("events", pkey, rows, All)
	}
	phases := []struct {
		name string
		run  func() error
	}{
		{"flush", db.Flush},
		// part-00 gains a second segment, which compaction merges with
		// its first: the flush round's file loses a section.
		{"compact", func() error {
			if err := put("part-00", 1000); err != nil {
				return err
			}
			_, err := db.Compact()
			return err
		}},
		// The sweep's own flush adds a file: the batch carries three.
		{"sweep", func() error {
			if err := put("part-02", 2000); err != nil {
				return err
			}
			_, _, err := db.TierSweep(true)
			return err
		}},
	}
	type state struct{ name, data, tier string }
	for _, ph := range phases {
		var mu sync.Mutex
		var states []*state // in the order the phase reached them
		byDigest := make(map[[sha256.Size]byte]*state)
		rec.Fail(func(op fsystest.Op) error {
			switch op.Kind {
			case "create", "sync", "rename", "syncdir", "remove":
				mu.Lock()
				defer mu.Unlock()
				img := rec.Cut(t, dir, tierDir)
				name := ph.name + "/" + op.Kind + "-" + filepath.Base(op.Path)
				if d := treeDigest(t, img...); byDigest[d] == nil {
					byDigest[d] = &state{name, img[0], img[1]}
					states = append(states, byDigest[d])
				} else if seen := byDigest[d]; name < seen.name {
					seen.name = name
				}
			}
			return nil
		})
		err := ph.run()
		rec.Fail(nil)
		if err != nil {
			t.Fatalf("%s: %v", ph.name, err)
		}
		want := readAll(t, db, "events") // every row was acked before the phase began
		for _, st := range states {
			t.Run(st.name, func(t *testing.T) { // t.Run numbers repeated names
				t.Parallel()
				checkTieredImage(t, st.data, st.tier, want)
			})
		}
	}
}

// treeDigest hashes the relative path and bytes of every file under dirs.
func treeDigest(t *testing.T, dirs ...string) [sha256.Size]byte {
	h := sha256.New()
	for i, dir := range dirs {
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			rel, _ := filepath.Rel(dir, path)
			fmt.Fprintf(h, "%d/%s %d\n", i, rel, len(data))
			h.Write(data)
			return err
		})
		if err != nil {
			t.Error(err) // not Fatal: a rule runs on the store's goroutines
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}
