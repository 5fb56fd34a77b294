package persist

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hpclog/internal/fsys"
	"hpclog/internal/fsys/fsystest"
	"hpclog/internal/objstore"
)

func newTestTier(t *testing.T, objDir string) *objstore.Tier {
	t.Helper()
	tier, err := objstore.Open(objstore.Config{Backend: "fs", Dir: objDir, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return tier
}

func openTiered(t *testing.T, dir string, tier *objstore.Tier) *Store {
	t.Helper()
	s, err := OpenStoreTiered(dir, &TierSetup{Tier: tier, Prefix: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func scanAll(t *testing.T, s *Store, table, pkey string) []Row {
	t.Helper()
	var out []Row
	for _, seg := range s.Segments(table, pkey) {
		it, err := seg.Scan(Range{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, drain(t, it)...)
	}
	return out
}

func countFiles(t *testing.T, dir, suffix string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			n++
		}
	}
	return n
}

func TestTierSweepForceEvictsAndReadsBack(t *testing.T) {
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	defer s.Close()

	rowsA := testRows(300, 1)
	rowsB := testRows(200, 1000)
	if err := s.Flush("events", "pa", rowsA); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush("events", "pb", rowsB); err != nil {
		t.Fatal(err)
	}
	up, ev, err := s.TierSweep(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if up != 2 || ev != 2 {
		t.Fatalf("sweep: uploaded=%d evicted=%d", up, ev)
	}
	if n := countFiles(t, dir, segFileExt); n != 0 {
		t.Fatalf("%d data files survived a full eviction", n)
	}
	if n := countFiles(t, dir, segStubExt); n != 2 {
		t.Fatalf("%d stubs, want 2", n)
	}
	if !sameRows(scanAll(t, s, "events", "pa"), rowsA) {
		t.Fatal("pa rows changed after eviction")
	}
	if !sameRows(scanAll(t, s, "events", "pb"), rowsB) {
		t.Fatal("pb rows changed after eviction")
	}
	st := s.Stats()
	if st.TieredSegments != 2 || st.TieredBytes == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if tier.FetchedBlocks.Load() == 0 {
		t.Fatal("evicted reads fetched nothing?")
	}
	// Idempotent: everything already evicted.
	up, ev, err = s.TierSweep(context.Background(), true)
	if err != nil || up != 0 || ev != 0 {
		t.Fatalf("second sweep: %d %d %v", up, ev, err)
	}
}

func TestTierSweepColdPolicyKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, dir, tier)
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Flush("events", "p1", testRows(80, int64(1+i*100))); err != nil {
			t.Fatal(err)
		}
	}
	_, ev, err := s.TierSweep(context.Background(), false)
	if err != nil || ev != 2 {
		t.Fatalf("cold sweep evicted %d, want 2 (%v)", ev, err)
	}
	segs := s.Segments("events", "p1")
	if len(segs) != 3 || segs[2].Tiered() || !segs[0].Tiered() || !segs[1].Tiered() {
		t.Fatal("newest segment should be the only resident one")
	}
}

// TestTierSweepColdPolicyAcrossRoundFiles: round files mix cold segments
// (each but its partition's newest) with newest ones. After a background
// compaction, pc has stopped: its newest segment shares the compaction's
// file with merged segments newer flushes made cold. That file goes whole,
// with every cold segment a per-segment policy would evict; a flush file
// whose newest segments hold most of its bytes stays, its small cold
// segment with it.
func TestTierSweepColdPolicyAcrossRoundFiles(t *testing.T) {
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, t.TempDir(), tier)
	defer s.Close()
	ts := int64(0)
	round := func(rows map[string]int) {
		t.Helper()
		var parts []FlushPart
		for _, pkey := range []string{"pa", "pb", "pc", "pd"} {
			if n := rows[pkey]; n > 0 {
				ts += 1000
				parts = append(parts, FlushPart{"events", pkey, testRows(n, ts)})
			}
		}
		if err := s.FlushRound(parts); err != nil {
			t.Fatal(err)
		}
	}
	round(map[string]int{"pa": 100, "pb": 100, "pc": 20})
	round(map[string]int{"pa": 100, "pb": 100, "pc": 20})
	round(map[string]int{"pa": 100, "pb": 100})
	if n, err := s.CompactOverflow(2); err != nil || n != 2 {
		t.Fatalf("compacted %d: %v", n, err)
	}
	merged := s.Segments("events", "pa")[0].file
	round(map[string]int{"pa": 100, "pb": 100, "pd": 20})
	round(map[string]int{"pd": 20})

	coldSet := make(map[*Segment]bool) // what a per-segment policy evicts
	for _, pkey := range []string{"pa", "pb", "pc", "pd"} {
		segs := s.Segments("events", pkey)
		for _, seg := range segs[:len(segs)-1] {
			coldSet[seg] = true
		}
	}
	_, ev, err := s.TierSweep(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkey := range []string{"pa", "pb", "pc", "pd"} {
		for _, seg := range s.Segments("events", pkey) {
			// pc's two segments sit in the merged file beside pa's and pb's.
			wantTiered := seg.file == merged
			if seg.Tiered() != wantTiered || wantTiered && pkey != "pc" && !coldSet[seg] {
				t.Fatalf("%s segment %d: tiered %v, want %v", pkey, seg.Seq(), seg.Tiered(), wantTiered)
			}
			if coldSet[seg] && !seg.Tiered() && pkey != "pd" {
				t.Fatalf("cold segment %d of %s stayed resident", seg.Seq(), pkey)
			}
		}
	}
	if ev != len(merged.segs) || ev != 4 {
		t.Fatalf("evicted %d segments, want the merged file's 4", ev)
	}
}

// TestEvictedFileKeepsItsDeadMarks: the compaction file that marks a dead
// section is swept to the object store while the section's own file
// stays. Its stub carries the marks, so a reopen still does not serve the
// section.
func TestEvictedFileKeepsItsDeadMarks(t *testing.T) {
	dir := t.TempDir()
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, dir, tier)
	defer func() { s.Close() }()
	want := map[string][]Row{"pa": testRows(10, 1), "pb": testRows(200, 1)}
	if err := s.FlushRound([]FlushPart{{"events", "pa", want["pa"]}, {"events", "pb", want["pb"]}}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 2; i++ {
		want["pa"] = overwrite(t, s, "pa", 10, 100*i, want["pa"])
	}
	if n, err := s.CompactOverflow(2); err != nil || n != 1 {
		t.Fatalf("compacted %d: %v", n, err)
	}
	want["pa"] = overwrite(t, s, "pa", 10, 300, want["pa"]) // the merged segment turns cold
	if _, ev, err := s.TierSweep(context.Background(), false); err != nil || ev != 1 {
		t.Fatalf("sweep evicted %d segments (%v), want the compaction file's one", ev, err)
	}
	s.Close()
	s = openTiered(t, dir, tier)
	if segs := s.Segments("events", "pa"); len(segs) != 2 || !segs[0].Tiered() {
		t.Fatalf("pa reopens as %d segments, want its tiered merge and its newest", len(segs))
	}
	for pkey, rows := range want {
		if !sameRows(mergedRows(t, s, pkey), rows) {
			t.Fatalf("%s rows changed", pkey)
		}
	}
	if dead := deadOnDisk(t, s); len(dead) != 1 {
		t.Fatalf("%d dead sections on disk, want pa's first in the flush file", len(dead))
	}
}

// TestCrashBeforeEntryDropKeepsSectionDead: a crash after a background
// round's barrier, before the round drops its inputs' manifest entries,
// leaves an entry of an evicted section the round's file marks dead. The
// reopen drops the entry and serves the section from neither stub nor
// object, while its sibling in the object stays readable. The power-loss
// and torn states of every stage reopen to the acked rows.
func TestCrashBeforeEntryDropKeepsSectionDead(t *testing.T) {
	rec := fsystest.Install(t)
	dir, objDir := t.TempDir(), t.TempDir()
	s := openTiered(t, dir, newTestTier(t, objDir))
	defer s.Close()
	want := map[string][]Row{"pa": testRows(10, 1), "pb": testRows(200, 1)}
	if err := s.FlushRound([]FlushPart{{"events", "pa", want["pa"]}, {"events", "pb", want["pb"]}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TierSweep(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 2; i++ {
		want["pa"] = overwrite(t, s, "pa", 10, 100*i, want["pa"])
	}
	var n int
	images, power, err := roundImages(t, rec, func() (err error) { n, err = s.CompactOverflow(2); return err }, dir, objDir)
	if err != nil || n != 1 {
		t.Fatalf("compacted %d: %v", n, err)
	}
	if len(images) != 4 || images[2].stage != "renamed" {
		t.Fatalf("images at %v, want renamed third of four", images)
	}
	checkPower(t, power, func(dirs []string) (*Store, error) {
		return OpenStoreTiered(dirs[0], &TierSetup{Tier: newTestTier(t, dirs[1]), Prefix: "n1"})
	}, func(name string, r *Store) {
		for pkey, rows := range want {
			if !sameRows(mergedRows(t, r, pkey), rows) {
				t.Fatalf("%s: %s rows changed", name, pkey)
			}
		}
	})
	r := openTiered(t, images[2].dirs[0], newTestTier(t, images[2].dirs[1]))
	defer r.Close()
	if segs := r.Segments("events", "pa"); len(segs) != 1 || segs[0].Tiered() {
		t.Fatalf("pa reopens as %d segments, want its merge alone", len(segs))
	}
	for pkey, rows := range want {
		if !sameRows(mergedRows(t, r, pkey), rows) {
			t.Fatalf("%s rows changed", pkey)
		}
	}
	if r.manifest.Len() != 1 {
		t.Fatalf("%d manifest entries, want pb's alone", r.manifest.Len())
	}
}

func TestTieredReopen(t *testing.T) {
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	rows := testRows(300, 1)
	if err := s.Flush("events", "p1", rows); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TierSweep(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the stubs on disk.
	s = openTiered(t, dir, tier)
	if !sameRows(scanAll(t, s, "events", "p1"), rows) {
		t.Fatal("rows changed across reopen")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh-disk scenario: the stubs are gone (new machine, same object
	// store + manifest); open must rebuild them from ranged reads.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segStubExt) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	s = openTiered(t, dir, tier)
	defer s.Close()
	if n := countFiles(t, dir, segStubExt); n != 1 {
		t.Fatalf("stub not rebuilt: %d", n)
	}
	if !sameRows(scanAll(t, s, "events", "p1"), rows) {
		t.Fatal("rows changed after stub rebuild")
	}
}

func TestOpenStoreWithoutTierFails(t *testing.T) {
	dir := t.TempDir()
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, dir, tier)
	if err := s.Flush("events", "p1", testRows(80, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TierSweep(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := OpenStore(dir); !errors.Is(err, ErrTierRequired) {
		t.Fatalf("want ErrTierRequired, got %v", err)
	}
}

// postManifest picks a sweep's first stub create: the manifest record of
// its uploads is durable, no stub is.
func postManifest(op fsystest.Op) bool {
	return op.Kind == "create" && strings.HasSuffix(op.Path, segStubExt+fsys.TempExt)
}

func TestReconcileReAdoptsLocalFile(t *testing.T) {
	// Crash window: manifest entry durable, data file still local (stub
	// may or may not exist). Recovery must re-adopt the local file and a
	// later sweep must evict without a second upload.
	rec := fsystest.Install(t)
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	if err := s.Flush("events", "p1", testRows(120, 1)); err != nil {
		t.Fatal(err)
	}
	img, power, err := crashBefore(t, rec, postManifest, func() error { _, _, err := s.TierSweep(context.Background(), true); return err }, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if img == nil {
		t.Fatal("the sweep created no stub")
	}
	checkPower(t, power, func(dirs []string) (*Store, error) {
		return OpenStoreTiered(dirs[0], &TierSetup{Tier: tier, Prefix: "n1"})
	}, func(name string, r *Store) {
		if !sameRows(scanAll(t, r, "events", "p1"), testRows(120, 1)) {
			t.Fatalf("%s: rows changed", name)
		}
	})

	uploadsBefore := tier.Uploads.Load()
	s2 := openTiered(t, img[0], tier)
	defer s2.Close()
	segs := s2.Segments("events", "p1")
	if len(segs) != 1 || segs[0].Tiered() || !segs[0].Uploaded() {
		t.Fatalf("re-adopt failed: %d segs", len(segs))
	}
	up, ev, err := s2.TierSweep(context.Background(), true)
	if err != nil || up != 0 || ev != 1 {
		t.Fatalf("post-recovery sweep: %d %d %v", up, ev, err)
	}
	if tier.Uploads.Load() != uploadsBefore {
		t.Fatal("recovery re-uploaded an already-verified object")
	}
	if !sameRows(scanAll(t, s2, "events", "p1"), testRows(120, 1)) {
		t.Fatal("rows changed through crash recovery")
	}
}

func TestReconcileMidUploadImage(t *testing.T) {
	// Crash window: object uploaded (or half-uploaded) but no manifest
	// entry. The manifest must never reference it; recovery re-uploads to
	// the same deterministic key.
	rec := fsystest.Install(t)
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	if err := s.Flush("events", "p1", testRows(120, 1)); err != nil {
		t.Fatal(err)
	}
	renamed := false // an object has its final name
	postUpload := func(op fsystest.Op) bool {
		if !strings.HasPrefix(op.Path, objDir) {
			return false
		}
		if op.Kind == "rename" {
			renamed = true
		}
		return renamed && (op.Kind == "create" || op.Kind == "sync")
	}
	img, power, err := crashBefore(t, rec, postUpload, func() error { _, _, err := s.TierSweep(context.Background(), true); return err }, dir)
	if err != nil || img == nil {
		t.Fatalf("sweep: %v; image found: %v", err, img != nil)
	}
	s.Close()
	checkPower(t, power, func(dirs []string) (*Store, error) {
		return OpenStoreTiered(dirs[0], &TierSetup{Tier: tier, Prefix: "n1"})
	}, func(name string, r *Store) {
		if !sameRows(scanAll(t, r, "events", "p1"), testRows(120, 1)) {
			t.Fatalf("%s: rows changed", name)
		}
	})

	s2 := openTiered(t, img[0], tier)
	defer s2.Close()
	segs := s2.Segments("events", "p1")
	if len(segs) != 1 || segs[0].Tiered() || segs[0].Uploaded() {
		t.Fatal("image should hold one plain resident segment")
	}
	up, ev, err := s2.TierSweep(context.Background(), true)
	if err != nil || up != 1 || ev != 1 {
		t.Fatalf("recovery sweep: %d %d %v", up, ev, err)
	}
	if !sameRows(scanAll(t, s2, "events", "p1"), testRows(120, 1)) {
		t.Fatal("rows changed through mid-upload recovery")
	}
}

func TestTieredCompactionDropsObjects(t *testing.T) {
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Flush("events", "p1", testRows(80, int64(1+i*1000))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.TierSweep(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	did, err := s.CompactPartition("events", "p1", 1)
	if err != nil || !did {
		t.Fatalf("compact: %v %v", did, err)
	}
	if s.manifest.Len() != 0 {
		t.Fatalf("manifest still holds %d retired entries", s.manifest.Len())
	}
	keys, err := tier.Store().List(context.Background(), "n1/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("retired objects leaked: %v", keys)
	}
	if n := countFiles(t, dir, segStubExt); n != 0 {
		t.Fatalf("%d orphan stubs after compaction", n)
	}
	// Merged result is resident and carries the last-write-wins rows.
	got := scanAll(t, s, "events", "p1")
	if !sameRows(got, testRows(80, 2001)) {
		t.Fatalf("merged rows wrong: %d", len(got))
	}
}

func TestEvictedIteratorSurvivesEviction(t *testing.T) {
	// An iterator opened before eviction keeps streaming from the
	// unlinked file descriptor — eviction must never corrupt live scans.
	dir := t.TempDir()
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, dir, tier)
	defer s.Close()
	rows := testRows(300, 1)
	if err := s.Flush("events", "p1", rows); err != nil {
		t.Fatal(err)
	}
	seg := s.Segments("events", "p1")[0]
	it, err := seg.Scan(Range{})
	if err != nil {
		t.Fatal(err)
	}
	var got []Row
	for i := 0; i < 100; i++ {
		r, ok := it.Next()
		if !ok {
			t.Fatal("short read")
		}
		got = append(got, r)
	}
	if _, ev, err := s.TierSweep(context.Background(), true); err != nil || ev != 1 {
		t.Fatalf("sweep under live iterator: %d %v", ev, err)
	}
	got = append(got, drain(t, it)...)
	if !sameRows(got, rows) {
		t.Fatal("live iterator lost rows across eviction")
	}
	if tier.FetchedBlocks.Load() != 0 {
		t.Fatal("pre-eviction iterator should not fetch")
	}
	// A fresh iterator reads through the tier.
	if !sameRows(scanAll(t, s, "events", "p1"), rows) {
		t.Fatal("post-eviction scan wrong")
	}
	if tier.FetchedBlocks.Load() == 0 {
		t.Fatal("post-eviction scan did not fetch")
	}
}

func TestEvictedRangeScanFetchesOnlyNeededBlocks(t *testing.T) {
	// 512 rows = 8 blocks; a narrow range must fetch ~1 block, not 8.
	dir := t.TempDir()
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, dir, tier)
	defer s.Close()
	rows := testRows(512, 1)
	if err := s.Flush("events", "p1", rows); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TierSweep(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	seg := s.Segments("events", "p1")[0]
	rg := Range{From: rows[130].Key, To: rows[140].Key}
	it, err := seg.Scan(rg)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	if len(got) != 10 {
		t.Fatalf("range scan got %d rows", len(got))
	}
	if f := tier.FetchedBlocks.Load(); f > 2 {
		t.Fatalf("narrow range fetched %d blocks", f)
	}
}

func TestSegmentInfosReportTierAndRoot(t *testing.T) {
	dir := t.TempDir()
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, dir, tier)
	defer s.Close()
	if err := s.Flush("events", "p1", testRows(80, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush("events", "p1", testRows(80, 100)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TierSweep(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	infos := s.SegmentInfos()
	if len(infos) != 2 {
		t.Fatalf("%d infos", len(infos))
	}
	if infos[0].Tier != "evicted" || infos[1].Tier != "resident" {
		t.Fatalf("tiers: %s %s", infos[0].Tier, infos[1].Tier)
	}
	for _, in := range infos {
		if len(in.Root) != 64 {
			t.Fatalf("root %q not a sha256 hex", in.Root)
		}
		if in.MinKey == "" || in.MaxKey == "" || in.Rows != 80 {
			t.Fatalf("info incomplete: %+v", in)
		}
	}
}

// TestRoundObjectSectionsReadTheirOwnBlocks: two sections of one object
// both start with block 0 and differ in every byte after the header;
// through the shared block cache — cold, warm, and after a reopen over the
// same tier — each reads back its own rows.
func TestRoundObjectSectionsReadTheirOwnBlocks(t *testing.T) {
	dir := t.TempDir()
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, dir, tier)
	want := map[string][]Row{"pa": testRows(60, 1), "pb": testRows(60, 5000)}
	if err := s.FlushRound([]FlushPart{{"events", "pa", want["pa"]}, {"events", "pb", want["pb"]}}); err != nil {
		t.Fatal(err)
	}
	if _, ev, err := s.TierSweep(context.Background(), true); err != nil || ev != 2 {
		t.Fatalf("sweep evicted %d: %v", ev, err)
	}
	if keys, _ := tier.Store().List(context.Background(), ""); len(keys) != 1 {
		t.Fatalf("a round of two sections became %d objects", len(keys))
	}
	check := func(s *Store, what string) {
		t.Helper()
		for _, pkey := range []string{"pa", "pb", "pa", "pb"} {
			if !sameRows(scanAll(t, s, "events", pkey), want[pkey]) {
				t.Fatalf("%s: %s reads back rows that are not its own", what, pkey)
			}
		}
	}
	check(s, "evicted")
	fetched := tier.FetchedBlocks.Load()
	if fetched != 2 {
		t.Fatalf("%d blocks fetched, want one per section", fetched)
	}
	s.Close()
	s = openTiered(t, dir, tier)
	defer s.Close()
	check(s, "reopened")
	if n := tier.FetchedBlocks.Load(); n != fetched {
		t.Fatalf("reads after the reopen fetched %d blocks; the cache held them", n-fetched)
	}
}

// TestRetiringOneSectionKeepsSiblings: compaction retires one section of
// a round object; the others stay readable — their cached blocks too —
// before and after a reopen, and the object and its stub go only with the
// last manifest entry that names them.
func TestRetiringOneSectionKeepsSiblings(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, dir, tier)
	defer func() { s.Close() }()
	want := map[string][]Row{"pa": testRows(70, 1), "pb": testRows(80, 1000), "pc": testRows(90, 2000)}
	if err := s.FlushRound([]FlushPart{{"events", "pa", want["pa"]}, {"events", "pb", want["pb"]}, {"events", "pc", want["pc"]}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TierSweep(ctx, true); err != nil {
		t.Fatal(err)
	}
	objects := func() int {
		keys, err := tier.Store().List(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		return len(keys)
	}
	check := func(what string) {
		t.Helper()
		for pkey, rows := range want {
			if !sameRows(scanAll(t, s, "events", pkey), rows) {
				t.Fatalf("%s: %s rows changed", what, pkey)
			}
		}
	}
	check("evicted")

	want["pa"] = testRows(70, 9000) // newer writes win the merge
	if err := s.Flush("events", "pa", want["pa"]); err != nil {
		t.Fatal(err)
	}
	fetched, cached := tier.FetchedBlocks.Load(), tier.Cache().Stats().Entries
	if did, err := s.CompactPartition("events", "pa", 1); err != nil || !did {
		t.Fatalf("compact pa: %v %v", did, err)
	}
	if n := tier.Cache().Stats().Entries; n != cached-2 { // pa's two blocks, and no sibling's
		t.Fatalf("the retire left %d of %d cached blocks, want %d", n, cached, cached-2)
	}
	if s.manifest.Len() != 2 || objects() != 1 || countFiles(t, dir, segStubExt) != 1 {
		t.Fatalf("retiring one section left %d entries, %d objects, %d stubs; want 2, 1, 1",
			s.manifest.Len(), objects(), countFiles(t, dir, segStubExt))
	}
	check("one section retired")
	if n := tier.FetchedBlocks.Load(); n != fetched {
		t.Fatalf("the siblings' reads fetched %d blocks; the retire dropped their cache entries", n-fetched)
	}
	s.Close()
	s = openTiered(t, dir, tier)
	check("reopened")
	if st := s.Stats(); st.TieredSegments != 2 || st.Segments != 3 || st.Files != 2 {
		t.Fatalf("reopened: %d of %d segments tiered in %d files; want 2 of 3 in 2", st.TieredSegments, st.Segments, st.Files)
	}

	// The last entries go, and the object and its stub with them.
	for _, pkey := range []string{"pb", "pc"} {
		want[pkey] = testRows(10, 9000)
		if err := s.Flush("events", pkey, want[pkey]); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.CompactOverflow(1); err != nil || n != 2 {
		t.Fatalf("compacted %d: %v", n, err)
	}
	if s.manifest.Len() != 0 || objects() != 0 || countFiles(t, dir, segStubExt) != 0 {
		t.Fatalf("after the last retire: %d entries, %d objects, %d stubs", s.manifest.Len(), objects(), countFiles(t, dir, segStubExt))
	}
}

// retireUnderScan evicts two partitions' files, one object each, and
// opens a batch scan on pa's evicted segment; then compaction retires it.
// It returns the open scan, pa's object key and the rows pa held.
func retireUnderScan(t *testing.T, s *Store) (*BatchScanner, string, []Row) {
	t.Helper()
	rows := testRows(300, 1)
	for _, pkey := range []string{"pa", "pb"} {
		if err := s.Flush("events", pkey, rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, ev, err := s.TierSweep(context.Background(), true); err != nil || ev != 2 {
		t.Fatalf("sweep evicted %d: %v", ev, err)
	}
	if err := s.Flush("events", "pa", testRows(10, 5000)); err != nil {
		t.Fatal(err)
	}
	evicted := s.Segments("events", "pa")[0]
	sc, err := ChainBatches(Range{}, false, []*Segment{evicted}, []ScanConfig{{}})
	if err != nil {
		t.Fatal(err)
	}
	if did, err := s.CompactPartition("events", "pa", 1); err != nil || !did {
		t.Fatalf("compact pa: %v %v", did, err)
	}
	return sc, evicted.TierKey(), rows
}

func listObjects(t *testing.T, tier *objstore.Tier) []string {
	t.Helper()
	keys, err := tier.Store().List(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// namedObjects returns the distinct object keys the manifest names, sorted.
func namedObjects(s *Store) []string {
	var keys []string
	for _, e := range s.manifest.Entries() {
		if len(keys) == 0 || keys[len(keys)-1] != e.Key {
			keys = append(keys, e.Key)
		}
	}
	return keys
}

// TestRetiredObjectOutlivesItsScan: a batch scan holds an evicted section
// that compaction retires before the scan reads a block. The scan reads
// every row; the object goes with the scan's release, not before.
func TestRetiredObjectOutlivesItsScan(t *testing.T) {
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, t.TempDir(), tier)
	defer s.Close()
	sc, key, rows := retireUnderScan(t, s)
	if keys := listObjects(t, tier); len(keys) != 2 || keys[0] != key {
		t.Fatalf("objects %v under the scan, want the retired %s still there", keys, key)
	}
	n := 0
	for b, ok := sc.Next(); ok; b, ok = sc.Next() {
		n += b.Len()
	}
	if err := sc.Err(); err != nil || n != len(rows) {
		t.Fatalf("the scan of the retired section read %d of %d rows: %v", n, len(rows), err)
	}
	sc.Close()
	if keys := listObjects(t, tier); !reflect.DeepEqual(keys, namedObjects(s)) || len(keys) != 1 {
		t.Fatalf("objects %v after the release, want only the named %v", keys, namedObjects(s))
	}
}

// TestRetiredObjectCrashImageCollected: a crash image cut while a scan
// holds a retired object — after its manifest entry went, before its
// delete — reopens to a bucket of exactly the objects the manifest names.
func TestRetiredObjectCrashImageCollected(t *testing.T) {
	dir, objDir := t.TempDir(), t.TempDir()
	s := openTiered(t, dir, newTestTier(t, objDir))
	defer s.Close()
	sc, _, _ := retireUnderScan(t, s)
	defer sc.Close()
	imgDir, imgObj := t.TempDir(), t.TempDir()
	fsystest.CopyTree(t, dir, imgDir)
	fsystest.CopyTree(t, objDir, imgObj)
	tier := newTestTier(t, imgObj)
	if n := len(listObjects(t, tier)); n != 2 {
		t.Fatalf("the image holds %d objects, want the retired one and pb's", n)
	}
	r := openTiered(t, imgDir, tier)
	defer r.Close()
	if keys := listObjects(t, tier); !reflect.DeepEqual(keys, namedObjects(r)) || len(keys) != 1 {
		t.Fatalf("reopened bucket holds %v, the manifest names %v", keys, namedObjects(r))
	}
}

// TestFaultObjectDeleteCollectedAtOpen: the delete of a retired object
// fails once; the object stays until the next open collects it.
func TestFaultObjectDeleteCollectedAtOpen(t *testing.T) {
	rec := fsystest.Install(t)
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	defer func() { s.Close() }()
	for _, pkey := range []string{"pa", "pa", "pb"} {
		if err := s.Flush("events", pkey, testRows(80, 1)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.TierSweep(context.Background(), true); err != nil {
			t.Fatal(err)
		}
	}
	fault := errors.New("injected delete failure")
	rec.Fail(func(op fsystest.Op) error {
		if op.Kind == "remove" && strings.HasPrefix(op.Path, objDir) {
			rec.Fail(nil)
			return fault
		}
		return nil
	})
	if did, err := s.CompactPartition("events", "pa", 1); err != nil || !did {
		t.Fatalf("compact pa: %v %v", did, err)
	}
	if n := len(listObjects(t, tier)); n != 2 {
		t.Fatalf("%d objects after the failed delete, want one of pa's and pb's", n)
	}
	s.Close()
	s = openTiered(t, dir, tier)
	if keys := listObjects(t, tier); !reflect.DeepEqual(keys, namedObjects(s)) || len(keys) != 1 {
		t.Fatalf("reopened bucket holds %v, the manifest names %v", keys, namedObjects(s))
	}
}
