package store

// Tiered-storage failure injection: a corrupted object must fail the
// Merkle check and fall back to a replica, and a kill -9 at any stage of
// the upload/eviction pipeline must lose no acked row while the manifest
// never references a half-uploaded object.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hpclog/internal/objstore"
	"hpclog/internal/store/persist"
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

// TestTieredCrashRecovery cuts crash images at every durability boundary
// of the upload/eviction pipeline (via persist.TierCrashHook) and proves,
// for each: recovery loses no acked row, the manifest references only
// fully-uploaded objects, and a fresh sweep converges back to 100%
// evicted — re-uploading or re-adopting as the stage demands.
func TestTieredCrashRecovery(t *testing.T) {
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
	type image struct{ stage, data, tier string }
	var images []image
	persist.TierCrashHook = func(stage string, seq uint64) {
		for _, img := range images {
			if img.stage == stage {
				return
			}
		}
		d, o := t.TempDir(), t.TempDir()
		copyTree(t, dir, d)
		copyTree(t, tierDir, o)
		images = append(images, image{stage, d, o})
	}
	defer func() { persist.TierCrashHook = nil }()
	up, ev, err := db.TierSweep(true)
	persist.TierCrashHook = nil
	if err != nil || up == 0 || ev == 0 {
		t.Fatalf("sweep: uploaded=%d evicted=%d err=%v", up, ev, err)
	}
	want := readAll(t, db, "events")
	if len(images) != 4 {
		t.Fatalf("captured %d stage images, want 4 (pre-upload post-upload post-manifest post-stub)", len(images))
	}

	for _, img := range images {
		t.Run(img.stage, func(t *testing.T) {
			rdb, err := OpenDurable(tieredCrashCfg(img.data, img.tier))
			if err != nil {
				t.Fatalf("recover from %s image: %v", img.stage, err)
			}
			defer rdb.Close()
			if got := readAll(t, rdb, "events"); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s image lost acked rows: %d partitions vs %d", img.stage, len(got), len(want))
			}
			verifyTierManifests(t, img.data, img.tier)
			// Recovery must be able to finish the job the crash interrupted.
			if _, _, err := rdb.TierSweep(true); err != nil {
				t.Fatalf("sweep after %s recovery: %v", img.stage, err)
			}
			if st := rdb.StorageStats(); st.DiskSegments == 0 || st.TieredSegments != st.DiskSegments {
				t.Fatalf("%s recovery did not reconverge: %d of %d evicted", img.stage, st.TieredSegments, st.DiskSegments)
			}
			verifyTierManifests(t, img.data, img.tier)
			if got := readAll(t, rdb, "events"); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s image lost rows after re-sweep", img.stage)
			}
		})
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
		for _, e := range m.Entries() {
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
	dir, tierDir := t.TempDir(), t.TempDir()
	cfg := tieredCrashCfg(dir, tierDir)
	cfg.FlushThreshold = 1 << 20 // no write fills a memtable: the sweep's flush is one round per node
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillDurable(t, db, "events", 5, 30)

	type image struct{ stage, data, tier string }
	var images []image
	persist.TierCrashHook = func(stage string, seq uint64) {
		for _, img := range images {
			if img.stage == stage {
				return
			}
		}
		d, o := t.TempDir(), t.TempDir()
		copyTree(t, dir, d)
		copyTree(t, tierDir, o)
		images = append(images, image{stage, d, o})
	}
	defer func() { persist.TierCrashHook = nil }()
	if _, ev, err := db.TierSweep(true); err != nil || ev != 10 {
		t.Fatalf("sweep evicted %d segments: %v", ev, err)
	}
	persist.TierCrashHook = nil
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
