package store

// Durability rounds: crash states at every stage of a flush and of a
// compaction round, the concurrency contract of handed-over memtables,
// and the error contract of a node-parallel Flush.

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpclog/internal/fsys"
	"hpclog/internal/fsys/fsystest"
)

// roundImage is the kill -9 image of a stage of a round: the data
// directory, the round's segment paths rebased into it, and the fsyncs of
// those files rec saw before the stage.
type roundImage struct {
	stage     string
	dir       string
	paths     []string
	fileSyncs int
}

// tornStates is how many torn states a crash test checks at each
// boundary beside its power-loss state.
const tornStates = 2

// captureRounds runs op under rec and finds, in the trace it leaves, each
// stage of the first round to fsync a data file: written, synced and
// renamed (fsystest.CommitStage), and published before the next
// commitlog operation, or once op returns if none follows. The round's
// files are the temp data files of its directory fsynced before its
// rename. It returns the kill -9 image of dir at each stage, in stage
// order, and the power-loss and torn states there.
func captureRounds(t *testing.T, rec *fsystest.FS, dir string, op func() error) ([]roundImage, []fsystest.State) {
	t.Helper()
	from := len(rec.Ops())
	if err := op(); err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops()
	isTemp := func(path string) bool { return strings.HasSuffix(path, ".seg"+fsys.TempExt) }
	stages := []string{"written", "synced", "renamed", "published"}
	var at []int
	var tmp string // the round's first file under its temp name
	wal := filepath.Join(dir, "wal")
	for i := from; i < len(ops) && len(at) < len(stages); i++ {
		if tmp == "" && ops[i].Kind == "sync" && isTemp(ops[i].Path) {
			tmp = ops[i].Path
		}
		if tmp == "" {
			continue
		}
		if next := stages[len(at)]; fsystest.CommitStage(ops[i], tmp) == next || next == "published" && filepath.Dir(ops[i].Path) == wal {
			at = append(at, i)
		}
	}
	if len(at) == len(stages)-1 {
		at = append(at, len(ops)) // published: no commitlog operation followed the round
	}
	if len(at) != len(stages) {
		t.Fatalf("found %d of the stages %v", len(at), stages)
	}
	syncs := make(map[string]int) // of each of the round's files
	for i := at[0]; i < at[1]; i++ {
		if ops[i].Kind == "sync" && isTemp(ops[i].Path) && filepath.Dir(ops[i].Path) == filepath.Dir(tmp) {
			syncs[ops[i].Path]++
		}
	}
	var images []roundImage
	var power []fsystest.State
	for k, b := range at {
		states := rec.States(b, tornStates, dir)
		img := roundImage{stage: stages[k], dir: states[0].Write(t)[0]}
		for i := at[0]; i < min(b, at[1]); i++ {
			if _, ok := syncs[ops[i].Path]; ok && ops[i].Kind == "sync" {
				img.fileSyncs++
			}
		}
		for p := range syncs {
			rel, err := filepath.Rel(dir, strings.TrimSuffix(p, fsys.TempExt))
			if err != nil {
				t.Fatal(err)
			}
			img.paths = append(img.paths, filepath.Join(img.dir, rel))
		}
		images = append(images, img)
		power = append(power, states[1:]...)
	}
	return images, fsystest.Distinct(power)
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
// was not synced before its rename. Then it recovers from the image
// (checkRecovery).
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

	checkRecovery(t, img.stage, img.dir, cfg, want)
}

// checkRecovery recovers from the crash state in dir: every acked row is
// present and nothing else, no segment is served twice, and no temp file
// survives the open.
func checkRecovery(t *testing.T, name, dir string, cfg Config, want map[string][]Row) {
	t.Helper()
	cfg.Dir = dir
	rdb, err := OpenDurable(cfg)
	if err != nil {
		t.Fatalf("recover from %s: %v", name, err)
	}
	defer rdb.Close()
	if got := readAll(t, rdb, "events"); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s lost acked rows: %d partitions vs %d", name, len(got), len(want))
	}
	for _, l := range rdb.SegmentInfos() {
		seen := make(map[uint64]bool)
		for _, si := range l.Segments {
			if seen[si.Seq] {
				t.Fatalf("%s: node %s serves segment %d twice", name, l.Node, si.Seq)
			}
			seen[si.Seq] = true
		}
	}
	filepath.Walk(dir, func(path string, _ os.FileInfo, _ error) error {
		if strings.HasSuffix(path, fsys.TempExt) {
			t.Errorf("%s: %s survived recovery", name, path)
		}
		return nil
	})
}

// checkPowerStates recovers from each power-loss or torn state
// (checkRecovery).
func checkPowerStates(t *testing.T, states []fsystest.State, cfg Config, want map[string][]Row) {
	t.Helper()
	if len(states) == 0 {
		t.Fatal("no power-loss state to check")
	}
	for _, s := range states {
		checkRecovery(t, fmt.Sprintf("%s state at %d", s.Kind, s.At), s.Write(t)[0], cfg, want)
	}
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
	// 45 rows in each of 5 partitions: 40 flushed by the write path's
	// round when the memtable crossed the threshold, 5 still dirty.
	fillDurable(t, db, "events", 5, 45)
	if db.MemtableRows() == 0 {
		t.Fatal("no dirty memtables to flush")
	}
	want := readAll(t, db, "events")
	st0, files0 := db.StorageStats(), countDataFiles(t, dir)

	images, power := captureRounds(t, rec, dir, db.Flush)
	for _, img := range images {
		if len(img.paths) != 1 {
			t.Fatalf("%s: a round wrote %d data files, want 1", img.stage, len(img.paths))
		}
		checkRoundImage(t, img, cfg, want)
	}
	checkPowerStates(t, power, cfg, want)
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
	images, power := captureRounds(t, rec, dir, func() error { _, err := db.Compact(); return err })
	for _, img := range images {
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
	checkPowerStates(t, power, cfg, want)
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
	cfg.FlushThreshold = 1 << 20 // no write fills a memtable: one file per node per Flush
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

	images, power := captureRounds(t, rec, dir, func() error { _, err := db.Compact(); return err })
	for _, img := range images {
		checkRoundImage(t, img, cfg, want)
	}
	checkPowerStates(t, power, cfg, want)
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

// TestThresholdFlushBlocksNoReader holds the flush round a full memtable
// triggers at its "written" stage. Meanwhile a Get and a further PutBatch
// to the same partition return, and the Get sees every row, the acked
// ones and the held batch's alike: the write path's round holds no
// partition lock across encode, write and fsync.
func TestThresholdFlushBlocksNoReader(t *testing.T) {
	rec := fsystest.Install(t)
	cfg := crashCfg(t.TempDir())
	cfg.Nodes, cfg.RF = 1, 1
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	rows := func(from, n int) []Row {
		out := make([]Row, n)
		for i := range out {
			out[i] = durableRow(int64(from + i))
		}
		return out
	}
	if err := db.PutBatch("events", "part-00", rows(0, 10), All); err != nil {
		t.Fatal(err)
	}

	held, release := make(chan struct{}), make(chan struct{})
	var holdOnce, releaseOnce sync.Once
	rec.Fail(func(op fsystest.Op) error {
		if op.Kind == "sync" && strings.HasSuffix(op.Path, ".seg"+fsys.TempExt) { // the round is written
			holdOnce.Do(func() { close(held); <-release })
		}
		return nil
	})
	var wg sync.WaitGroup
	defer wg.Wait()
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	start := func(fn func() error) <-chan error {
		done := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			done <- fn()
		}()
		return done
	}
	wait := func(what string, done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			unblock()
			t.Fatalf("%s did not return while the flush round was held", what)
		}
	}

	// Under the threshold, so logged, and filling the memtable.
	filling := start(func() error { return db.PutBatch("events", "part-00", rows(100, cfg.FlushThreshold-10), All) })
	select {
	case <-held:
	case err := <-filling:
		t.Fatalf("the filling PutBatch returned (%v) before its round reached written", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no flush round reached written")
	}
	wait("a PutBatch to the held partition", start(func() error {
		return db.PutBatch("events", "part-00", rows(200, 5), All)
	}))
	var got []Row
	wait("a Get of the held partition", start(func() (err error) {
		got, err = db.Get("events", "part-00", Range{}, One)
		return err
	}))
	if want := cfg.FlushThreshold + 5; len(got) != want {
		t.Fatalf("the Get saw %d rows while the round was held, want %d", len(got), want)
	}
	unblock()
	wait("the filling PutBatch", filling)
	if st := db.StorageStats(); st.FlushRounds != 1 || db.MemtableRows() != 5 {
		t.Fatalf("%d flush rounds, %d rows left in the memtable; want 1 and 5", st.FlushRounds, db.MemtableRows())
	}
}

// TestFlushJoinsNodeErrors: one node's failed round is reported, counted
// once as a maintenance error, loses nothing, and stops no other node.
func TestFlushJoinsNodeErrors(t *testing.T) {
	dir := t.TempDir()
	cfg := crashCfg(dir)
	cfg.FlushThreshold = 1 << 20 // no write fills a memtable
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
			cfg.FlushThreshold = 1 << 20 // no write fills a memtable
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

// TestWriteRoundVisitsOnlyFullMemtables: the round a filling PutBatch runs
// visits the partitions whose put reported them full and no other. With
// 20 000 idle two-row partitions on the node, the threshold is lowered to
// two rows: every idle memtable now holds as much as a full one, but no
// put said so, so a round that walked the node would flush them all. A
// one-row batch — logged, under the threshold — fills a partition that
// held one row, and its round flushes that partition alone. A round that
// fails puts its partitions back on the list: the next filling batch, to
// another partition, flushes them with its own.
func TestWriteRoundVisitsOnlyFullMemtables(t *testing.T) {
	rec := fsystest.Install(t)
	cfg := Config{Nodes: 1, RF: 1, FlushThreshold: 256, CompactInterval: -1, Dir: t.TempDir(), WALNoSync: true}
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	const idle = 20000
	for i := range idle {
		if err := db.PutBatch("events", fmt.Sprintf("idle-%05d", i), []Row{durableRow(int64(i)), durableRow(int64(idle + i))}, All); err != nil {
			t.Fatal(err)
		}
	}
	for _, pkey := range []string{"full-a", "full-b", "full-c"} {
		if err := db.PutBatch("events", pkey, []Row{durableRow(0)}, All); err != nil {
			t.Fatal(err)
		}
	}
	db.nodes[0].flushThreshold = 2

	if err := db.PutBatch("events", "full-a", []Row{durableRow(1)}, All); err != nil {
		t.Fatal(err)
	}
	if st := db.StorageStats(); st.FlushRounds != 1 || st.Flushes != 1 || db.MemtableRows() != 2*idle+2 {
		t.Fatalf("the filling batch's round wrote %d segments in %d rounds and left %d rows in memtables; want 1, 1 and %d",
			st.Flushes, st.FlushRounds, db.MemtableRows(), 2*idle+2)
	}

	fault := errors.New("injected write failure")
	rec.Fail(func(op fsystest.Op) error {
		if op.Kind == "write" && strings.HasSuffix(op.Path, ".seg"+fsys.TempExt) {
			return fault
		}
		return nil
	})
	err = db.PutBatch("events", "full-b", []Row{durableRow(2)}, All)
	rec.Fail(nil)
	if !errors.Is(err, fault) {
		t.Fatalf("a filling batch under the fault: %v, want %v", err, fault)
	}
	if err := db.PutBatch("events", "full-c", []Row{durableRow(3)}, All); err != nil {
		t.Fatal(err)
	}
	if st := db.StorageStats(); st.FlushRounds != 2 || st.Flushes != 3 || db.MemtableRows() != 2*idle {
		t.Fatalf("after a failed round and a filling batch to another partition: %d segments in %d rounds, %d rows in memtables; want 3, 2 and %d",
			st.Flushes, st.FlushRounds, db.MemtableRows(), 2*idle)
	}
}

// TestNodeRoundFilesReproducible: a node's flush and compaction rounds
// write the same bytes for the same rows and write timestamps, whatever
// order the rows and partitions arrived in — the round takes its
// memtables in partition order, not in the node's map order.
func TestNodeRoundFilesReproducible(t *testing.T) {
	want := nodeRoundFiles(t, 0)
	if len(want) == 0 {
		t.Fatal("the rounds wrote no file")
	}
	for seed := int64(1); seed < 6; seed++ {
		got := nodeRoundFiles(t, seed)
		if !slices.Equal(slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want))) {
			t.Fatalf("seed %d wrote files %v, seed 0 %v", seed, slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
		}
		for _, name := range slices.Sorted(maps.Keys(want)) {
			if !bytes.Equal(got[name], want[name]) {
				t.Fatalf("seed %d: %s differs from seed 0's (%d and %d bytes)", seed, name, len(got[name]), len(want[name]))
			}
		}
	}
}

// nodeRoundFiles puts the same rows, each with its own write timestamp,
// into 24 partitions of a fresh one-node store, shuffled by seed, in two
// waves each ended by DB.Flush, then compacts. It returns the data files
// present after each round, by round and name.
func nodeRoundFiles(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	db, err := OpenDurable(Config{Nodes: 1, RF: 1, FlushThreshold: 1 << 20, CompactInterval: -1, Dir: dir, WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	snapshot := func(round string) {
		paths, err := filepath.Glob(filepath.Join(dir, "node-*", "seg", "*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			files[round+strings.TrimPrefix(p, dir)] = b
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for wave := range 2 {
		var puts [][2]int
		for p := range 24 {
			for i := range 20 {
				puts = append(puts, [2]int{p, wave*20 + i})
			}
		}
		rng.Shuffle(len(puts), func(i, j int) { puts[i], puts[j] = puts[j], puts[i] })
		for _, pi := range puts {
			i := int64(pi[0]*100 + pi[1])
			row := MakeRow(EncodeTS(1000+i), 1+i, []Col{C("count", fmt.Sprint(i)), C("node", fmt.Sprintf("c0-0c%d", i%3))})
			if err := db.PutBatch("events", fmt.Sprintf("part-%02d", pi[0]), []Row{row}, All); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		snapshot(fmt.Sprintf("flush-%d", wave))
	}
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	snapshot("compact")
	return files
}
