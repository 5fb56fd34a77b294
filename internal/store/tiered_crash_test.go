package store

// Tiered-storage failure injection: a corrupted object must fail the
// Merkle check and fall back to a replica, and a kill -9 at any stage of
// the upload/eviction pipeline must lose no acked row while the manifest
// never references a half-uploaded object.

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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

// sweepImage is the kill -9 image of the data directory and the object
// store at a stage of a sweep.
type sweepImage struct{ stage, data, tier string }

// sweepImages runs op under rec and finds, in the trace it leaves, each
// stage of a tier sweep, each at an operation: pre-upload at the create
// of the first object's temp file, post-upload at the next create or
// fsync in that object's directory (the next upload, or the objects'
// barrier), post-manifest at the first stub's create and post-stub at the
// first data file's remove. It returns the kill -9 image of dir and
// tierDir at each stage found, and the power-loss and torn states at every
// boundary of op's trace: tornStates torn states at each, where one with
// no effect unsynced to tear is the power-loss state. The nodes sweep
// concurrently, so the boundary of a stage, and whether anything is
// unsynced at a boundary, change from run to run; the length of the trace
// does not, nor the states' names.
func sweepImages(t *testing.T, rec *fsystest.FS, dir, tierDir string, op func() error) ([]sweepImage, []fsystest.State, error) {
	t.Helper()
	from := len(rec.Ops())
	err := op()
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
	var images []sweepImage
	var states []fsystest.State
	ops := rec.Ops()
	for i := from; i <= len(ops); i++ {
		st := rec.States(i, tornStates, dir, tierDir)
		if i < len(ops) && len(images) < len(stages) && stages[len(images)].at(ops[i]) {
			img := st[0].Write(t)
			images = append(images, sweepImage{stages[len(images)].name, img[0], img[1]})
		}
		for len(st) < 2+tornStates {
			torn := st[1]
			torn.Kind = fsystest.Torn
			st = append(st, torn)
		}
		states = append(states, st[1:]...)
	}
	return images, states, err
}

// TestTieredCrashRecovery takes a kill -9 image at every stage of the
// upload/eviction pipeline and the power-loss and torn states at every
// operation boundary of the sweep and of a second ingest and sweep after
// it (sweepImages), and proves, for each: recovery loses no acked row,
// the manifest references only fully-uploaded objects, and a fresh sweep
// converges back to 100% evicted — re-uploading or re-adopting as the
// stage demands.
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
	batch := func(b int) []Row {
		var rows []Row
		for i := 0; i < rowsPerBatch; i++ {
			rows = append(rows, MapRow(EncodeTS(int64(5000+b*rowsPerBatch+i))+":src", 0, map[string]string{"batch": fmt.Sprint(b)}))
		}
		return rows
	}
	for b := 0; b < batches; b++ {
		if err := db.PutBatch("events", fmt.Sprintf("part-%d", b%3), batch(b), All); err != nil {
			t.Fatal(err)
		}
	}

	// Capture one crash image per pipeline stage, mid-sweep: both the data
	// directory (WAL, segments, stubs, manifest) and the object root. Then
	// a batch to a new partition and a second sweep, whose objects go
	// beside the first's, into manifests that hold entries.
	var up, ev, swept, acked int
	images, power, err := sweepImages(t, rec, dir, tierDir, func() (err error) {
		if up, ev, err = db.TierSweep(true); err != nil || up == 0 || ev == 0 {
			return fmt.Errorf("sweep: uploaded=%d evicted=%d err=%v", up, ev, err)
		}
		swept = len(rec.Ops())
		if err := db.PutBatch("events", "part-3", batch(batches), All); err != nil {
			return err
		}
		acked = len(rec.Ops())
		_, _, err = db.TierSweep(true)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	after := readAll(t, db, "events")
	want := maps.Clone(after)
	delete(want, "part-3")
	if len(images) != 4 {
		t.Fatalf("captured %d stage images, want 4 (pre-upload post-upload post-manifest post-stub)", len(images))
	}

	for _, img := range images {
		t.Run(img.stage, func(t *testing.T) { checkTieredImage(t, img.data, img.tier, want) })
	}
	checkSecondIngestPower(t, power, swept, acked, want, after)
}

// checkSecondIngestPower checks the power-loss and torn states of a sweep,
// a batch and a second sweep (checkTieredPower) against the rows acked at
// their boundary: before up to the first sweep's end at swept, before or
// after while the batch is in flight, after from its ack at acked on.
func checkSecondIngestPower(t *testing.T, states []fsystest.State, swept, acked int, before, after map[string][]Row) {
	t.Helper()
	i := slices.IndexFunc(states, func(s fsystest.State) bool { return s.At > swept })
	j := slices.IndexFunc(states, func(s fsystest.State) bool { return s.At >= acked })
	if i < 0 || j < 0 {
		t.Fatalf("no state after the first sweep (%d) or the ack (%d)", swept, acked)
	}
	checkTieredPower(t, states[:i], before)
	checkTieredPower(t, states[i:j], before, after)
	checkTieredPower(t, states[j:], after)
}

// checkTieredPower checks each power-loss or torn state as a kill -9
// image (checkTieredImage), in a subtest named after its kind and
// boundary. States of one digest recover alike: each is recovered once,
// under the first of its names, and the subtests of its later names
// name that one.
func checkTieredPower(t *testing.T, states []fsystest.State, want ...map[string][]Row) {
	t.Helper()
	if len(states) == 0 {
		t.Fatal("no power-loss state to check")
	}
	first := make(map[[sha256.Size]byte]string)
	for _, s := range states {
		t.Run(fmt.Sprintf("%s-%d", s.Kind, s.At), func(t *testing.T) { // t.Run numbers repeated names
			if name, ok := first[s.Digest]; ok {
				t.Logf("the state of %s", name)
				return
			}
			first[s.Digest] = t.Name()
			t.Parallel()
			img := s.Write(t)
			checkTieredImage(t, img[0], img[1], want...)
		})
	}
}

// checkTieredImage recovers a tiered store from the image in data and
// tier and checks the crash oracle: the rows are one of want — the acked
// rows, or those and a write in flight, whole — no segment is served
// twice, the manifest names only whole objects, and a forced sweep
// finishes the job the crash interrupted: every segment evicted, every
// row still there.
func checkTieredImage(t *testing.T, data, tier string, want ...map[string][]Row) {
	t.Helper()
	rdb, err := OpenDurable(tieredCrashCfg(data, tier))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rdb.Close()
	got := readAll(t, rdb, "events")
	if !slices.ContainsFunc(want, func(w map[string][]Row) bool { return reflect.DeepEqual(got, w) }) {
		t.Fatalf("lost acked rows: %d partitions vs %d", len(got), len(want[0]))
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
	if again := readAll(t, rdb, "events"); !reflect.DeepEqual(again, got) {
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

// TestTieredRoundObjectCrashRecovery takes crash states at every stage
// of the sweep of round objects — each node's data is one flush round's
// file of five partitions, uploaded as one object behind one stub — and
// proves for each kill -9 image what TestTieredCrashRecovery does — no
// acked row lost, no half-uploaded object referenced, no segment served
// twice — and that a fresh sweep converges to one object and one stub per
// node; and for each power-loss and torn state, of that sweep and of a
// second ingest and sweep after it, what TestTieredCrashRecovery does.
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

	// After the sweep, a batch to a new partition and a second sweep, as
	// in TestTieredCrashRecovery.
	var ev, swept, acked int
	images, power, err := sweepImages(t, rec, dir, tierDir, func() (err error) {
		if _, ev, err = db.TierSweep(true); err != nil || ev != 10 {
			return fmt.Errorf("sweep evicted %d segments: %v", ev, err)
		}
		swept = len(rec.Ops())
		var rows []Row
		for i := 150; i < 180; i++ {
			rows = append(rows, durableRow(int64(i)))
		}
		if err := db.PutBatch("events", "part-05", rows, All); err != nil {
			return err
		}
		acked = len(rec.Ops())
		_, _, err = db.TierSweep(true)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	after := readAll(t, db, "events")
	want := maps.Clone(after)
	delete(want, "part-05")
	if len(images) != 4 {
		t.Fatalf("captured %d stage images, want 4", len(images))
	}
	check := func(stage, data, tier string) {
		t.Run(stage, func(t *testing.T) {
			rcfg := tieredCrashCfg(data, tier)
			rcfg.FlushThreshold = cfg.FlushThreshold
			rdb, err := OpenDurable(rcfg)
			if err != nil {
				t.Fatalf("recover from %s image: %v", stage, err)
			}
			defer rdb.Close()
			if got := readAll(t, rdb, "events"); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s image lost acked rows", stage)
			}
			verifyTierManifests(t, data, tier)
			if _, _, err := rdb.TierSweep(true); err != nil {
				t.Fatalf("sweep after %s recovery: %v", stage, err)
			}
			st := rdb.StorageStats()
			objs, _ := filepath.Glob(filepath.Join(tier, "node-*", "*.seg"))
			if st.DiskSegments != 10 || st.TieredSegments != 10 || st.DiskFiles != 2 || len(objs) != 2 {
				t.Fatalf("%s recovery converged to %d of %d segments tiered, %d stubs, %d objects; want 10 of 10 in 2 and 2",
					stage, st.TieredSegments, st.DiskSegments, st.DiskFiles, len(objs))
			}
			verifyTierManifests(t, data, tier)
			if got := readAll(t, rdb, "events"); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s image lost rows after re-sweep", stage)
			}
		})
	}
	for _, img := range images {
		check(img.stage, img.data, img.tier)
	}
	// A commitlog segment whose unlink no directory fsync covered comes
	// back after power loss and replays into segments of its own: the
	// rows are the same, the layout is not one object a node.
	checkSecondIngestPower(t, power, swept, acked, want, after)
}

// TestCrashStatesAtEveryOperation recovers the crash states at every
// create, fsync, rename, directory fsync and remove of a flush, a
// compaction and a forced sweep of one tiered node — the states between
// the stages the round and sweep tests name, such as one commitlog
// segment gone and the next not, or a sweep batch's first data file
// unlinked and its second not (checkTieredImage). Each state of each such
// boundary is a subtest, named by its phase, its kind, its operation's kind
// and base name and, within that, the boundary's label: the operation's
// path under the test's root and the occurrence of that kind and path.
// States of a phase equal byte for byte are one state, recovered once, by
// the first subtest that meets it, against the narrowest acked rows any of
// them allows: a kill -9
// state's, else a power-loss state's at its last boundary, where the most
// is acked. At least one power-loss state must equal no kill -9 state of
// the run: one a copy of the live directory could not show.
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
	put := func(pkey string, from int) func() error {
		return func() error {
			var rows []Row
			for i := from; i < from+20; i++ {
				rows = append(rows, durableRow(int64(i)))
			}
			return db.PutBatch("events", pkey, rows, All)
		}
	}
	phases := []struct {
		name string
		put  func() error // a write acked inside the phase
		run  func() error
	}{
		{"flush", nil, db.Flush},
		// part-00 gains a second segment, which compaction merges with
		// its first: the flush round's file loses a section.
		{"compact", put("part-00", 1000), func() error { _, err := db.Compact(); return err }},
		// The sweep's own flush adds a file: the batch carries three.
		{"sweep", put("part-02", 2000), func() error { _, _, err := db.TierSweep(true); return err }},
	}
	type digest = [sha256.Size]byte
	type boundary struct {
		phase  int
		op     string // kind-base, the name the test has always given it
		label  string // its path under the test root # the occurrence of that kind and path
		states []fsystest.State
	}
	var bounds []boundary
	// wants[phase][digest] is what a phase's state of those bytes must
	// recover to.
	wants := make([]map[digest][]map[string][]Row, len(phases))
	kills := 0
	var power []fsystest.State         // the power-loss and torn states no kill -9 state of their phase equals
	everyKill := make(map[digest]bool) // the kill -9 state at every boundary of the run
	for i := 0; i < len(rec.Ops()); i++ {
		everyKill[rec.States(i, 0, dir, tierDir)[0].Digest] = true
	}
	root := filepath.Dir(dir)
	for p, ph := range phases {
		before := readAll(t, db, "events") // acked before the phase
		from, acked := len(rec.Ops()), len(rec.Ops())
		if ph.put != nil {
			if err := ph.put(); err != nil {
				t.Fatalf("%s: %v", ph.name, err)
			}
			acked = len(rec.Ops())
		}
		if err := ph.run(); err != nil {
			t.Fatalf("%s: %v", ph.name, err)
		}
		want := readAll(t, db, "events") // every row was acked before the phase ended
		wants[p] = make(map[digest][]map[string][]Row)
		ops := rec.Ops()
		seen := make(map[string]int)
		var powerAt [][]map[string][]Row // the wants of the phase's power-loss and torn states, by boundary
		var phaseBounds []boundary
		for i := from; i < len(ops); i++ {
			st := rec.States(i, tornStates, dir, tierDir)
			everyKill[st[0].Digest] = true
			switch ops[i].Kind {
			case "create", "sync", "rename", "syncdir", "remove":
			default:
				continue
			}
			rel, err := filepath.Rel(root, ops[i].Path)
			if err != nil {
				t.Fatal(err)
			}
			rel = filepath.ToSlash(rel)
			seen[ops[i].Kind+" "+rel]++
			phaseBounds = append(phaseBounds, boundary{p, ops[i].Kind + "-" + filepath.Base(ops[i].Path),
				fmt.Sprintf("%s#%d", rel, seen[ops[i].Kind+" "+rel]), st})
			if wants[p][st[0].Digest] == nil {
				wants[p][st[0].Digest] = []map[string][]Row{want}
				kills++
			}
			w := []map[string][]Row{want}
			if i < acked {
				w = append(w, before) // the phase's write is in flight
			}
			powerAt = append(powerAt, w)
		}
		// A power-loss state no kill -9 state equals recovers as at its
		// last boundary.
		for j := len(phaseBounds) - 1; j >= 0; j-- {
			for _, s := range phaseBounds[j].states[1:] {
				if wants[p][s.Digest] == nil {
					wants[p][s.Digest] = powerAt[j]
					power = append(power, s)
				}
			}
		}
		bounds = append(bounds, phaseBounds...)
	}
	// The copies of the live directory the store's round tests took
	// before every such operation came to 32 distinct states.
	if kills != 32 {
		t.Errorf("%d distinct kill -9 states, want 32", kills)
	}
	everyKill[rec.States(len(rec.Ops()), 0, dir, tierDir)[0].Digest] = true
	powerOnly := 0
	for _, s := range power {
		if !everyKill[s.Digest] {
			powerOnly++
		}
	}
	if powerOnly == 0 {
		t.Fatal("every power-loss state equals a kill -9 state")
	}
	// The kill -9 state of a boundary runs under phase/kind-base, its
	// power-loss and torn states under power/phase/<state kind>-kind-base,
	// each holding the boundary's label. t.Run numbers repeated names, here
	// in label order, and a boundary with no unsynced write to tear keeps
	// its torn subtests, so every run names the same subtests, whichever
	// boundaries share bytes.
	slices.SortStableFunc(bounds, func(a, b boundary) int {
		return cmp.Or(a.phase-b.phase, strings.Compare(a.op, b.op), strings.Compare(a.label, b.label))
	})
	recovered := make([]map[digest]string, len(phases)) // the subtest that recovered each digest; "" if it failed
	for p := range recovered {
		recovered[p] = make(map[digest]string)
	}
	for _, b := range bounds {
		ph := phases[b.phase].name
		for k := range 2 + tornStates {
			name := ph + "/" + b.op
			if k > 0 {
				name = "power/" + ph + "/" + []string{fsystest.Power, fsystest.Torn}[min(k, 2)-1] + "-" + b.op
			}
			t.Run(name, func(t *testing.T) {
				t.Run(b.label, func(t *testing.T) {
					if k >= len(b.states) {
						t.Log("no unsynced write to tear")
						return
					}
					s := b.states[k]
					if by, seen := recovered[b.phase][s.Digest]; seen {
						if by == "" {
							t.Fatal("an earlier state of the same bytes failed to recover")
						}
						t.Logf("recovered as %s", by)
						return
					}
					recovered[b.phase][s.Digest] = ""
					img := s.Write(t)
					checkTieredImage(t, img[0], img[1], wants[b.phase][s.Digest]...)
					recovered[b.phase][s.Digest] = t.Name()
				})
			})
		}
	}
}
