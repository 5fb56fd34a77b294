package store

// Durability rounds: crash images cut at every stage of a flush and of a
// compaction round, the concurrency contract of handed-over memtables,
// and the error contract of a node-parallel Flush.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hpclog/internal/fsys"
	"hpclog/internal/fsys/fsystest"
	"hpclog/internal/store/persist"
)

// roundImage is a crash image cut inside a round: the copied data
// directory, the round's segment paths rebased into the copy, and the
// fsyncs of round files rec saw since the round began.
type roundImage struct {
	stage     string
	dir       string
	paths     []string
	fileSyncs int
}

// captureRounds runs op with a round hook that cuts one image per stage
// (the first round to reach it) and returns them in stage order.
func captureRounds(t *testing.T, rec *fsystest.FS, dir string, op func() error) []roundImage {
	t.Helper()
	var images []roundImage
	var syncs0 int
	roundSyncs := func() int { return rec.Count("sync", "*.seg"+fsys.TempExt) }
	persist.RoundCrashHook = func(stage string, paths []string) {
		if stage == "written" {
			syncs0 = roundSyncs()
		}
		for _, img := range images {
			if img.stage == stage {
				return
			}
		}
		img := roundImage{stage: stage, dir: t.TempDir(), fileSyncs: roundSyncs() - syncs0}
		copyTree(t, dir, img.dir)
		for _, p := range paths {
			rel, err := filepath.Rel(dir, p)
			if err != nil {
				t.Fatal(err)
			}
			img.paths = append(img.paths, filepath.Join(img.dir, rel))
		}
		images = append(images, img)
	}
	defer func() { persist.RoundCrashHook = nil }()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	var stages []string
	for _, img := range images {
		stages = append(stages, img.stage)
	}
	if want := []string{"written", "synced", "renamed", "published"}; !reflect.DeepEqual(stages, want) {
		t.Fatalf("captured stages %v, want %v", stages, want)
	}
	return images
}

// countDataFiles counts the data files of every node under dir.
func countDataFiles(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "node-*", "seg", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// checkRoundImage asserts the round invariant on one image: the round's
// files carry their final names only from "renamed" on, and by "synced"
// every one of them has been fsynced — no segment is ever visible that
// was not synced before its rename. Then it recovers from the image:
// every acked row is present and no temp file survives the open.
func checkRoundImage(t *testing.T, img roundImage, cfg Config, want map[string][]Row) {
	t.Helper()
	renamed := img.stage == "renamed" || img.stage == "published"
	for _, p := range img.paths {
		if exists(p) != renamed || exists(p+fsys.TempExt) == renamed {
			t.Fatalf("%s: %s final=%v temp=%v", img.stage, filepath.Base(p), exists(p), exists(p+fsys.TempExt))
		}
	}
	if img.stage == "written" && img.fileSyncs != 0 {
		t.Fatalf("written: %d file fsyncs before the barrier", img.fileSyncs)
	}
	if img.stage != "written" && img.fileSyncs != len(img.paths) {
		t.Fatalf("%s: %d file fsyncs for %d files", img.stage, img.fileSyncs, len(img.paths))
	}

	cfg.Dir = img.dir
	rdb, err := OpenDurable(cfg)
	if err != nil {
		t.Fatalf("recover from %s image: %v", img.stage, err)
	}
	defer rdb.Close()
	if got := readAll(t, rdb, "events"); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s image lost acked rows: %d partitions vs %d", img.stage, len(got), len(want))
	}
	for _, l := range rdb.SegmentInfos() {
		seen := make(map[uint64]bool)
		for _, si := range l.Segments {
			if seen[si.Seq] {
				t.Fatalf("%s: node %s serves segment %d twice", img.stage, l.Node, si.Seq)
			}
			seen[si.Seq] = true
		}
	}
	filepath.Walk(img.dir, func(path string, _ os.FileInfo, _ error) error {
		if strings.HasSuffix(path, fsys.TempExt) {
			t.Errorf("%s: %s survived recovery", img.stage, path)
		}
		return nil
	})
}

func TestFlushRoundCrashImages(t *testing.T) {
	rec := fsystest.Install(t)
	dir := t.TempDir()
	cfg := crashCfg(dir)
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// 45 rows in each of 5 partitions: 40 flushed inline when the memtable
	// crossed the threshold, 5 still dirty.
	fillDurable(t, db, "events", 5, 45)
	if db.MemtableRows() == 0 {
		t.Fatal("no dirty memtables to flush")
	}
	want := readAll(t, db, "events")
	st0, files0 := db.StorageStats(), countDataFiles(t, dir)

	for _, img := range captureRounds(t, rec, dir, db.Flush) {
		if len(img.paths) != 1 {
			t.Fatalf("%s: a round wrote %d data files, want 1", img.stage, len(img.paths))
		}
		checkRoundImage(t, img, cfg, want)
	}
	// Each node's round wrote its segments into its one file.
	st := db.StorageStats()
	if rounds, files, segs := st.FlushRounds-st0.FlushRounds, int64(countDataFiles(t, dir)-files0), st.Flushes-st0.Flushes; files != rounds || segs <= files {
		t.Fatalf("%d flush rounds wrote %d segments in %d data files", rounds, segs, files)
	}
	if st.DiskFiles != int64(countDataFiles(t, dir)) {
		t.Fatalf("disk_files = %d, the directory holds %d", st.DiskFiles, countDataFiles(t, dir))
	}
	if db.MemtableRows() != 0 {
		t.Fatalf("%d rows left in memtables after Flush", db.MemtableRows())
	}
	if got := readAll(t, db, "events"); !reflect.DeepEqual(got, want) {
		t.Fatal("rows changed across the flush round")
	}
}

func TestCompactRoundCrashImages(t *testing.T) {
	rec := fsystest.Install(t)
	dir := t.TempDir()
	cfg := crashCfg(dir)
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillDurable(t, db, "events", 5, 120) // several segments per partition
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	want := readAll(t, db, "events")
	inputs, err := filepath.Glob(filepath.Join(dir, "node-*", "seg", "*.seg"))
	if err != nil || len(inputs) == 0 {
		t.Fatalf("no compaction inputs (err=%v)", err)
	}

	// Inputs are unlinked only after the barrier: every image before
	// "published" still holds every input of the round's node, until
	// recovery removes the inputs the round's file marks dead.
	for _, img := range captureRounds(t, rec, dir, func() error { _, err := db.Compact(); return err }) {
		node := filepath.Dir(img.paths[0])
		missing := 0
		for _, in := range inputs {
			rel, _ := filepath.Rel(dir, in)
			if p := filepath.Join(img.dir, rel); filepath.Dir(p) == node && !exists(p) {
				missing++
			}
		}
		if (img.stage == "published") != (missing > 0) {
			t.Fatalf("%s: %d inputs of the round unlinked", img.stage, missing)
		}
		checkRoundImage(t, img, cfg, want)
	}
	if got := readAll(t, db, "events"); !reflect.DeepEqual(got, want) {
		t.Fatal("rows changed across the compaction round")
	}
}

// TestCompactRoundRehomesSurvivorsCrashImages: compacting one partition,
// more than a third of a flush round's file, out of it moves the file's
// other sections into the compaction's own. Every stage's image recovers
// every acked row and serves each segment once: where the new file and
// its input both survive the crash, the input, wholly replaced, goes at
// open.
func TestCompactRoundRehomesSurvivorsCrashImages(t *testing.T) {
	rec := fsystest.Install(t)
	dir := t.TempDir()
	cfg := crashCfg(dir)
	cfg.FlushThreshold = 1 << 20 // nothing flushes inline: one file per node per Flush
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillDurable(t, db, "events", 5, 30)
	put := func(from, n int) {
		t.Helper()
		var rows []Row
		for i := from; i < from+n; i++ {
			rows = append(rows, durableRow(int64(i)))
		}
		if err := db.PutBatch("events", "part-00", rows, All); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	put(2000, 60) // part-00: 90 rows of the 210 in its first file
	put(1000, 10)
	want := readAll(t, db, "events")
	st0 := db.StorageStats()

	for _, img := range captureRounds(t, rec, dir, func() error { _, err := db.Compact(); return err }) {
		checkRoundImage(t, img, cfg, want)
	}
	// Per node: part-00 merged; the four others re-homed, not compacted.
	st := db.StorageStats()
	if n := st.CompactedSegments - st0.CompactedSegments; n != 4 || st.DiskSegments != st0.DiskSegments-2 || st.DiskFiles != 2 {
		t.Fatalf("compaction retired %d segments, left %d in %d files (%d before)", n, st.DiskSegments, st.DiskFiles, st0.DiskSegments)
	}
	if got := readAll(t, db, "events"); !reflect.DeepEqual(got, want) {
		t.Fatal("rows changed across the compaction round")
	}
}

// TestFlushRoundsConcurrentWritersAndScanners proves the handover
// contract under -race: while Flush rounds run back to back, no row a
// writer has been acked for is ever invisible to a scanner, and the final
// last-write-wins contents equal those of the same writes applied
// serially with no flush at all.
func TestFlushRoundsConcurrentWritersAndScanners(t *testing.T) {
	const writers, batches, perBatch = 4, 60, 5
	cfg := crashCfg(t.TempDir())
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	// Writer w owns partition w. Batch b writes keys b*perBatch.. and
	// overwrites the previous batch's first key, so LWW has work to do.
	batch := func(w, b int) []Row {
		rows := make([]Row, 0, perBatch+1)
		if b > 0 {
			rows = append(rows, MapRow(EncodeTS(int64((b-1)*perBatch))+":k", 0, map[string]string{"v": fmt.Sprint(w, ".", b, ".over")}))
		}
		for i := 0; i < perBatch; i++ {
			rows = append(rows, MapRow(EncodeTS(int64(b*perBatch+i))+":k", 0, map[string]string{"v": fmt.Sprint(w, ".", b)}))
		}
		return rows
	}
	pkey := func(w int) string { return fmt.Sprintf("part-%d", w) }

	var acked [writers]atomic.Int64 // batches acked per writer
	var wg, scanners sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if err := db.PutBatch("events", pkey(w), batch(w, b), All); err != nil {
					t.Error(err)
					return
				}
				acked[w].Store(int64(b + 1))
			}
		}()
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := acked[w].Load() // read BEFORE the scan: all of it must be visible
				rows, err := db.Get("events", pkey(w), Range{}, One)
				if err != nil {
					t.Error(err)
					return
				}
				if int64(len(rows)) < n*perBatch {
					t.Errorf("writer %d: %d batches acked, scan saw only %d rows", w, n, len(rows))
					return
				}
			}
		}()
	}
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%4 == 3 {
				_, err = db.Compact()
			} else {
				err = db.Flush()
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	scanners.Wait()
	<-flushed

	serial := openTest(t, Config{Nodes: cfg.Nodes, RF: cfg.RF, VNodes: cfg.VNodes, FlushThreshold: 1 << 30, CompactInterval: -1})
	if err := serial.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for b := 0; b < batches; b++ {
			if err := serial.PutBatch("events", pkey(w), batch(w, b), All); err != nil {
				t.Fatal(err)
			}
		}
	}
	contents := func(db *DB) map[string]map[string]string {
		out := make(map[string]map[string]string)
		for pk, rows := range readAll(t, db, "events") {
			for _, r := range rows {
				out[pk+"/"+r.Key] = r.ColumnsMap()
			}
		}
		return out
	}
	if got, want := contents(db), contents(serial); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent flush rounds changed LWW contents: %d rows vs %d serial", len(got), len(want))
	}
}

// TestFlushJoinsNodeErrors: one node's failed round is reported, counted
// once as a maintenance error, loses nothing, and stops no other node.
func TestFlushJoinsNodeErrors(t *testing.T) {
	dir := t.TempDir()
	cfg := crashCfg(dir)
	cfg.FlushThreshold = 1 << 20 // nothing flushes inline
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillDurable(t, db, "events", 5, 30)
	want := readAll(t, db, "events")

	// Non-empty directories squatting on the temp names the next rounds
	// will create make one node's rounds fail before their barrier.
	ids := db.NodeIDs()
	bad, good := db.Node(ids[0]), db.Node(ids[1])
	var squats []string
	for seq := 0; seq < 16; seq++ {
		squat := filepath.Join(dir, "node-"+bad.ID(), "seg", fmt.Sprintf("%020d.seg%s", seq, fsys.TempExt))
		if err := os.MkdirAll(filepath.Join(squat, "keep"), 0o755); err != nil {
			t.Fatal(err)
		}
		squats = append(squats, squat)
	}
	err = db.Flush()
	if err == nil || !strings.Contains(err.Error(), "node "+bad.ID()) {
		t.Fatalf("Flush error = %v, want node %s's round failure", err, bad.ID())
	}
	if n := db.StorageStats().MaintenanceErrors; n != 1 {
		t.Fatalf("maintenance errors = %d, want 1", n)
	}
	if good.MemtableRows() != 0 || bad.MemtableRows() == 0 {
		t.Fatalf("memtable rows: failed node %d (want > 0), healthy node %d (want 0)", bad.MemtableRows(), good.MemtableRows())
	}
	if got := readAll(t, db, "events"); !reflect.DeepEqual(got, want) {
		t.Fatal("a failed round lost or changed rows")
	}
	if _, err := db.Compact(); err == nil {
		t.Fatal("Compact hid the failed flush")
	}
	if n := db.StorageStats().MaintenanceErrors; n != 2 {
		t.Fatalf("maintenance errors = %d after a failed Compact, want 2", n)
	}

	for _, squat := range squats {
		if err := os.RemoveAll(squat); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.MemtableRows() != 0 {
		t.Fatalf("%d rows still in memtables", db.MemtableRows())
	}
	if got := readAll(t, db, "events"); !reflect.DeepEqual(got, want) {
		t.Fatal("rows changed across the retried round")
	}
}

// TestFaultFlushRoundPublishesNothing: a flush round whose data file write,
// fsync or rename fails publishes nothing. No segment appears, no temp
// file stays, every row reads back from the memtables its run merged back
// into, and a retry once the fault clears publishes them, as a reopen
// shows.
func TestFaultFlushRoundPublishesNothing(t *testing.T) {
	for _, kind := range []string{"write", "sync", "rename"} {
		t.Run(kind, func(t *testing.T) {
			rec := fsystest.Install(t)
			dir := t.TempDir()
			cfg := crashCfg(dir)
			cfg.FlushThreshold = 1 << 20 // nothing flushes inline
			db, err := OpenDurable(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()
			fillDurable(t, db, "events", 5, 30)
			want, infos := readAll(t, db, "events"), db.SegmentInfos()
			fault := errors.New("injected " + kind + " failure")
			rec.Fail(func(op fsystest.Op) error {
				if op.Kind == kind && strings.HasSuffix(op.Path, ".seg"+fsys.TempExt) {
					return fault
				}
				return nil
			})
			err = db.Flush()
			rec.Fail(nil)
			if !errors.Is(err, fault) {
				t.Fatalf("Flush under the fault: %v, want %v", err, fault)
			}
			if got := db.SegmentInfos(); !reflect.DeepEqual(got, infos) {
				t.Fatal("a failed round published segments")
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "node-*", "seg", "*"+fsys.TempExt)); len(tmps) != 0 {
				t.Fatalf("a failed round left %v", tmps)
			}
			if db.MemtableRows() == 0 || !reflect.DeepEqual(readAll(t, db, "events"), want) {
				t.Fatalf("a failed round lost rows: %d left in memtables", db.MemtableRows())
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if db.MemtableRows() != 0 || reflect.DeepEqual(db.SegmentInfos(), infos) {
				t.Fatal("the retry did not publish the rows")
			}
			db.Close()
			if db, err = OpenDurable(cfg); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(readAll(t, db, "events"), want) {
				t.Fatal("the reopened store reads other rows")
			}
		})
	}
}
