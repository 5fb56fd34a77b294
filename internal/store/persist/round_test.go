package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
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

// ioDelta returns a function reporting the file creates, file fsyncs,
// directory fsyncs and manifest writes (fsyncs of the manifest's log) rec
// saw since ioDelta was called.
func ioDelta(rec *fsystest.FS) func() (creates, files, dirs, manifest int) {
	count := func() (int, int, int, int) {
		return rec.Count("create", "*"), rec.Count("sync", "*"), rec.Count("syncdir", "*"), rec.Count("sync", "wal-*.log")
	}
	c0, f0, d0, m0 := count()
	return func() (int, int, int, int) {
		c, f, d, m := count()
		return c - c0, f - f0, d - d0, m - m0
	}
}

// TestRoundSyncBudget pins what a round may cost: N segments share ONE
// data file, ONE file fsync and ONE directory fsync per barrier, a sweep
// of that file ONE object, ONE stub and ONE manifest write — where the
// per-segment path created, and fsynced, N of each.
func TestRoundSyncBudget(t *testing.T) {
	const n = 12
	rec := fsystest.Install(t)
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	defer s.Close()
	parts := func(gen int) []FlushPart {
		var ps []FlushPart
		for i := 0; i < n; i++ {
			ps = append(ps, FlushPart{"events", fmt.Sprintf("p%02d", i), testRows(80, int64(1+gen*1000))})
		}
		return ps
	}
	objects := func() int {
		keys, err := tier.Store().List(context.Background(), "")
		if err != nil {
			t.Fatal(err)
		}
		return len(keys)
	}

	since := ioDelta(rec)
	if err := s.FlushRound(parts(0)); err != nil {
		t.Fatal(err)
	}
	if c, f, d, _ := since(); c != 1 || f != 1 || d != 1 {
		t.Fatalf("flush round of %d segments: %d creates, %d file fsyncs, %d directory fsyncs; want 1 of each", n, c, f, d)
	}
	if st := s.Stats(); st.Flushes != n || st.FlushRounds != 1 || st.Segments != n || st.Files != 1 {
		t.Fatalf("flushes=%d rounds=%d segments=%d files=%d, want %d, 1, %d, 1", st.Flushes, st.FlushRounds, st.Segments, st.Files, n, n)
	}

	// Sweep: one object, one stub and the manifest log's first segment (a
	// create), each behind its own barrier, and one manifest write. This
	// first sweep also makes two directories, the object's key prefix and
	// the manifest log, and fsyncs each into its parent (fsys.MkdirSync):
	// two more directory fsyncs.
	since = ioDelta(rec)
	up, ev, err := s.TierSweep(context.Background(), true)
	if err != nil || up != n || ev != n {
		t.Fatalf("sweep: uploaded=%d evicted=%d err=%v", up, ev, err)
	}
	if c, f, d, m := since(); c != 3 || m != 1 || d != 5 || f != 3 {
		t.Fatalf("sweep of a round of %d segments: %d creates, %d manifest writes, %d directory fsyncs, %d file fsyncs; want 3, 1, 5, 3", n, c, m, d, f)
	}
	if o, stubs := objects(), countFiles(t, dir, segStubExt); o != 1 || stubs != 1 {
		t.Fatalf("sweep left %d objects and %d stubs, want 1 of each", o, stubs)
	}
	if st := s.Stats(); st.TieredSegments != n || st.Files != 1 {
		t.Fatalf("tiered=%d files=%d, want %d and 1", st.TieredSegments, st.Files, n)
	}

	// A second generation makes every partition compactable; the round
	// that merges them all writes one data file, and one manifest write —
	// a snapshot, hence a create and a second directory fsync: the removes
	// leave nothing live, so an empty image in a fresh log segment replaces
	// the old one, whose records were all durable already. The object and
	// its stub go with the last entry, the stub's unlink made durable (a
	// third directory fsync) before the entries go.
	if err := s.FlushRound(parts(1)); err != nil {
		t.Fatal(err)
	}
	since = ioDelta(rec)
	merged, err := s.CompactOverflow(1)
	if err != nil || merged != n {
		t.Fatalf("compacted %d partitions (err=%v), want %d", merged, err, n)
	}
	if c, f, d, m := since(); c != 2 || d != 3 || m != 1 || f != 2 {
		t.Fatalf("compaction round of %d partitions: %d creates, %d directory fsyncs, %d manifest writes, %d file fsyncs; want 2, 3, 1, 2", n, c, d, m, f)
	}
	if o, stubs, data := objects(), countFiles(t, dir, segStubExt), countFiles(t, dir, segFileExt); o != 0 || stubs != 0 || data != 1 {
		t.Fatalf("compaction left %d objects, %d stubs, %d data files; want 0, 0, 1", o, stubs, data)
	}
}

// TestCompactingOnePartitionLeavesNoDeadSection: compacting a partition
// that holds more than a third of a resident flush-round file moves the
// file's other sections — their data regions byte for byte — into the
// compaction's own file. One data file remains, its index lists exactly
// the live segments, and their bytes are all it holds but the string table
// and the index — before and after a reopen.
func TestCompactingOnePartitionLeavesNoDeadSection(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	want := map[string][]Row{"pa": testRows(100, 1), "pb": testRows(130, 1000), "pc": testRows(5, 2000)}
	if err := s.FlushRound([]FlushPart{{"events", "pa", want["pa"]}, {"events", "pb", want["pb"]}, {"events", "pc", want["pc"]}}); err != nil {
		t.Fatal(err)
	}
	roots := make(map[uint64][objstore.HashLen]byte)
	for _, pkey := range []string{"pb", "pc"} {
		seg := s.Segments("events", pkey)[0]
		roots[seg.Seq()] = seg.root
	}
	want["pa"] = testRows(100, 9000)
	if err := s.Flush("events", "pa", want["pa"]); err != nil {
		t.Fatal(err)
	}
	if did, err := s.CompactPartition("events", "pa", 1); err != nil || !did {
		t.Fatalf("compact pa: %v %v", did, err)
	}
	check := func(what string) {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, "*"+segFileExt))
		if err != nil || len(files) != 1 {
			t.Fatalf("%s: data files %v (%v), want one", what, files, err)
		}
		f, size, err := openSized(files[0])
		if err != nil {
			t.Fatal(err)
		}
		secs, _, _, err := readSections(f, size)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		listed, liveBytes := make(map[uint64]bool), int64(0)
		for _, sc := range secs {
			listed[sc.seq] = true
		}
		for pkey, rows := range want {
			segs := s.Segments("events", pkey)
			if len(segs) != 1 || !listed[segs[0].Seq()] || !sameRows(scanAll(t, s, "events", pkey), rows) {
				t.Fatalf("%s: %s is not the one live section of the file it should be", what, pkey)
			}
			if root, ok := roots[segs[0].Seq()]; ok && root != segs[0].root {
				t.Fatalf("%s: the copy of %s changed its Merkle root", what, pkey)
			}
			liveBytes += segs[0].Size()
			delete(listed, segs[0].Seq())
		}
		if len(listed) != 0 || secs[len(secs)-1].off+secs[len(secs)-1].len != liveBytes {
			t.Fatalf("%s: %d dead sections; %d section bytes in the file, %d live", what, len(listed), secs[len(secs)-1].off+secs[len(secs)-1].len, liveBytes)
		}
		if st := s.Stats(); st.Files != 1 || st.Segments != 3 {
			t.Fatalf("%s: %d segments in %d files", what, st.Segments, st.Files)
		}
	}
	check("compacted")
	s.Close()
	if s, err = OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	check("reopened")
}

// deadOnDisk returns the sections the store's data files hold and it does
// not serve.
func deadOnDisk(t *testing.T, s *Store) []section {
	t.Helper()
	live := make(map[uint64]bool)
	for _, info := range s.SegmentInfos() {
		live[info.Seq] = true
	}
	files, err := filepath.Glob(filepath.Join(s.dir, "*"+segFileExt))
	if err != nil {
		t.Fatal(err)
	}
	var dead []section
	for _, path := range files {
		secs, _, err := readIndex(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range secs {
			if !live[sc.seq] {
				dead = append(dead, sc)
			}
		}
	}
	return dead
}

// mergedRows reads a partition through the last-write-wins merge of its
// segments.
func mergedRows(t *testing.T, s *Store, pkey string) []Row {
	t.Helper()
	var its []Iterator
	for _, seg := range s.Segments("events", pkey) {
		it, err := seg.Scan(Range{})
		if err != nil {
			t.Fatal(err)
		}
		its = append(its, it)
	}
	return drain(t, MergeIters(its))
}

// overwrite flushes n rows over the first n keys of pkey, as a segment of
// its own, and returns want[pkey] after it.
func overwrite(t *testing.T, s *Store, pkey string, n int, ts int64, want []Row) []Row {
	t.Helper()
	rows := testRows(n, ts)
	if err := s.Flush("events", pkey, rows); err != nil {
		t.Fatal(err)
	}
	return append(rows, want[n:]...)
}

// TestCompactionLeavesDeadSections: a compaction round copies no sibling
// of the inputs it retires. It marks them dead in its own file, so no
// reopen serves them, until a file's dead sections hold a third of its
// bytes: then the file's live sections move and it goes. An explicit
// compaction (threshold 1) follows the same rule.
func TestCompactionLeavesDeadSections(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	want := map[string][]Row{"pa": testRows(10, 1), "pb": testRows(200, 1), "pc": testRows(60, 1)}
	if err := s.FlushRound([]FlushPart{{"events", "pa", want["pa"]}, {"events", "pb", want["pb"]}, {"events", "pc", want["pc"]}}); err != nil {
		t.Fatal(err)
	}
	pc := s.Segments("events", "pc")[0]
	ts := int64(1000)
	// step overwrites pkey twice, compacts at threshold, and checks the
	// rows, one segment per partition, and the dead sections on disk.
	step := func(what, pkey string, threshold, dead int) {
		t.Helper()
		for i := 0; i < 2; i++ {
			ts += 100
			want[pkey] = overwrite(t, s, pkey, 10, ts, want[pkey])
		}
		if n, err := s.CompactOverflow(threshold); err != nil || n != 1 {
			t.Fatalf("%s: compacted %d partitions (%v), want 1", what, n, err)
		}
		for _, reopen := range []bool{false, true} {
			if reopen {
				s.Close()
				if s, err = OpenStore(dir); err != nil {
					t.Fatal(err)
				}
			}
			for p, rows := range want {
				if len(s.Segments("events", p)) != 1 || !sameRows(scanAll(t, s, "events", p), rows) {
					t.Fatalf("%s (reopened %v): %s does not read back as one segment of its rows", what, reopen, p)
				}
			}
			if got := deadOnDisk(t, s); len(got) != dead {
				t.Fatalf("%s (reopened %v): %d dead sections on disk, want %d", what, reopen, len(got), dead)
			}
		}
	}

	// pa's first segment is a small part of the flush file: it stays there,
	// dead, and the round's file holds pa's merged segment alone.
	step("pa merged", "pa", 2, 1)
	files, _ := filepath.Glob(filepath.Join(dir, "*"+segFileExt))
	if len(files) != 2 {
		t.Fatalf("%d data files, want the flush round's and the compaction's", len(files))
	}
	if secs, marks, err := readIndex(files[1]); err != nil || len(secs) != 1 || !slices.Contains(marks, uint64(0)) {
		t.Fatalf("the compaction's file holds %d sections and marks %v (%v); want pa's merge, marking seq 0", len(secs), marks, err)
	}
	// pb's retire makes the flush file mostly dead: pc moves, its data
	// region byte for byte.
	step("pb merged", "pb", 1, 0)
	if moved := s.Segments("events", "pc")[0]; moved.Seq() != pc.Seq() || moved.root != pc.root || filepath.Base(moved.path) == filepath.Base(pc.path) {
		t.Fatal("pc was not moved out of the reclaimed flush file as is")
	}
	// pc's retire leaves a dead section beside pb's larger merged one.
	step("pc merged", "pc", 1, 1)
}

// TestCompactionRoundIsolatesAFailedMerge: one partition's merge fails —
// a block of its tiered input no longer verifies — and the round compacts
// the other partition anyway. The failed partition keeps its segments and
// its resident one moves out of the file the round reclaims.
func TestCompactionRoundIsolatesAFailedMerge(t *testing.T) {
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	defer s.Close()
	for _, pkey := range []string{"pa", "pb"} {
		if err := s.Flush("events", pkey, testRows(80, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ev, err := s.TierSweep(context.Background(), true); err != nil || ev != 2 {
		t.Fatalf("sweep evicted %d: %v", ev, err)
	}
	newer := testRows(80, 500)
	if err := s.FlushRound([]FlushPart{{"events", "pa", newer}, {"events", "pb", newer}}); err != nil {
		t.Fatal(err)
	}
	pa := s.Segments("events", "pa")
	obj := filepath.Join(objDir, filepath.FromSlash(pa[0].TierKey()))
	data, err := os.ReadFile(obj)
	if err != nil {
		t.Fatal(err)
	}
	data[pa[0].base+int64(len(segHeader))] ^= 1
	if err := os.WriteFile(obj, data, 0o644); err != nil {
		t.Fatal(err)
	}

	n, err := s.CompactOverflow(1)
	if n != 1 || !errors.Is(err, objstore.ErrIntegrity) {
		t.Fatalf("compacted %d partitions (%v); want pb alone, and pa's integrity error", n, err)
	}
	if segs := s.Segments("events", "pb"); len(segs) != 1 || !sameRows(scanAll(t, s, "events", "pb"), newer) {
		t.Fatal("pb was not compacted to its newer rows")
	}
	after := s.Segments("events", "pa")
	if len(after) != 2 || after[0] != pa[0] || after[1].Seq() != pa[1].Seq() || after[1].path == pa[1].path {
		t.Fatal("pa's segments did not stay, its resident one moved out of the reclaimed file")
	}
	it, err := after[1].Scan(Range{})
	if err != nil || !sameRows(drain(t, it), newer) {
		t.Fatalf("pa's resident segment lost its rows (%v)", err)
	}
	if dead := deadOnDisk(t, s); len(dead) != 0 || countFiles(t, dir, segFileExt) != 1 {
		t.Fatalf("%d dead sections in %d data files, want none in one", len(dead), countFiles(t, dir, segFileExt))
	}
}

// crashImage is the kill -9 image of a store's directories at stage.
type crashImage struct {
	stage string
	dirs  []string
}

// tornStates is how many torn states a crash test checks at each
// boundary beside its power-loss state.
const tornStates = 2

// roundImages runs op under rec and finds, in the trace it leaves, each
// stage of the first round to commit a data file — written, synced and
// renamed (fsystest.CommitStage) — and published, once op returns. It
// returns the kill -9 image of dirs at each stage, and the power-loss and
// torn states there.
func roundImages(t *testing.T, rec *fsystest.FS, op func() error, dirs ...string) ([]crashImage, []fsystest.State, error) {
	t.Helper()
	from := len(rec.Ops())
	err := op()
	ops := rec.Ops()
	stages := []string{"written", "synced", "renamed", "published"}
	var at []int
	var tmp string // the round's data file under its temp name
	for i := from; i < len(ops) && len(at) < len(stages)-1; i++ {
		if tmp == "" && ops[i].Kind == "sync" && strings.HasSuffix(ops[i].Path, segFileExt+fsys.TempExt) {
			tmp = ops[i].Path
		}
		if tmp != "" && fsystest.CommitStage(ops[i], tmp) == stages[len(at)] {
			at = append(at, i)
		}
	}
	names := append(slices.Clone(stages[:len(at)]), "published")
	var images []crashImage
	var states []fsystest.State
	for k, b := range append(at, len(ops)) {
		st := rec.States(b, tornStates, dirs...)
		images = append(images, crashImage{names[k], st[0].Write(t)})
		states = append(states, st[1:]...)
	}
	return images, fsystest.Distinct(states), err
}

// crashBefore runs op under rec and returns the kill -9 image of dirs at
// the first operation at picks, nil if none, and the power-loss and torn
// states there.
func crashBefore(t *testing.T, rec *fsystest.FS, at func(fsystest.Op) bool, op func() error, dirs ...string) ([]string, []fsystest.State, error) {
	t.Helper()
	from := len(rec.Ops())
	err := op()
	for i, o := range rec.Ops()[from:] {
		if at(o) {
			st := rec.States(from+i, tornStates, dirs...)
			return st[0].Write(t), fsystest.Distinct(st[1:]), err
		}
	}
	return nil, nil, err
}

// checkPower opens a store on each power-loss or torn state with open —
// which must succeed — and checks it with check.
func checkPower(t *testing.T, states []fsystest.State, open func(dirs []string) (*Store, error), check func(name string, r *Store)) {
	t.Helper()
	if len(states) == 0 {
		t.Fatal("no power-loss state to check")
	}
	for _, s := range states {
		name := fmt.Sprintf("%s state at %d", s.Kind, s.At)
		r, err := open(s.Write(t))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, r)
		r.Close()
	}
}

// TestDeadSectionsStayDeadCrashImages takes crash states at each stage of
// a background round that leaves its inputs as dead sections of a live
// file. Every kill -9 image reopens to the acked rows; it serves the
// inputs until the round's file has its final name and never after, and
// the flush file that holds them stays. Every power-loss and torn state
// reopens to the acked rows.
func TestDeadSectionsStayDeadCrashImages(t *testing.T) {
	rec := fsystest.Install(t)
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := map[string][]Row{"pa": testRows(10, 1), "pb": testRows(200, 1)}
	if err := s.FlushRound([]FlushPart{{"events", "pa", want["pa"]}, {"events", "pb", want["pb"]}}); err != nil {
		t.Fatal(err)
	}
	flushFile := s.Segments("events", "pb")[0].path
	for i := int64(1); i <= 2; i++ {
		want["pa"] = overwrite(t, s, "pa", 10, 100*i, want["pa"])
	}
	var n int
	images, power, err := roundImages(t, rec, func() (err error) { n, err = s.CompactOverflow(2); return err }, dir)
	if err != nil || n != 1 || len(images) != 4 {
		t.Fatalf("compacted %d (%v) in %d stage images, want 1 in 4", n, err, len(images))
	}
	checkPower(t, power, func(dirs []string) (*Store, error) { return OpenStore(dirs[0]) }, func(name string, r *Store) {
		for pkey, rows := range want {
			if !sameRows(mergedRows(t, r, pkey), rows) {
				t.Errorf("%s: %s lost acked rows", name, pkey)
			}
		}
	})
	for _, img := range images {
		r, err := OpenStore(img.dirs[0])
		if err != nil {
			t.Fatalf("%s: %v", img.stage, err)
		}
		segs := 3 // pa's inputs, before the round's file has its final name
		if img.stage == "renamed" || img.stage == "published" {
			segs = 1
		}
		if got := len(r.Segments("events", "pa")); got != segs {
			t.Errorf("%s: pa reopens as %d segments, want %d", img.stage, got, segs)
		}
		for pkey, rows := range want {
			if !sameRows(mergedRows(t, r, pkey), rows) {
				t.Errorf("%s: %s lost acked rows", img.stage, pkey)
			}
		}
		if _, err := os.Stat(filepath.Join(img.dirs[0], filepath.Base(flushFile))); err != nil {
			t.Errorf("%s: the flush file holding pb went: %v", img.stage, err)
		}
		r.Close()
	}
}

// roundFileBytes returns the bytes of a real round file of three sections
// and the end of its data region.
func roundFileBytes(t testing.TB) ([]byte, int64) {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.FlushRound([]FlushPart{{"events", "pa", testRows(3, 1)}, {"events", "pb", testRows(70, 1)}, {"events", "pc", testRows(1, 1)}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.segPath(0))
	if err != nil {
		t.Fatal(err)
	}
	secs, _, tab, err := readSections(bytes.NewReader(data), int64(len(data)))
	if err != nil || len(secs) != 3 || len(tab.strs) == 0 {
		t.Fatalf("%d sections, string table %v: %v", len(secs), tab, err)
	}
	return data, secs[2].off + secs[2].len
}

// roundTail frames a string table and an index behind region with a
// trailer that vouches for both, whatever they say.
func roundTail(region, strs, idx []byte) []byte {
	b := append(append(slices.Clone(region), strs...), idx...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(strs)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(strs, crcTable))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(idx)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(idx, crcTable))
	return append(b, roundTrailer...)
}

// hostileRoundFiles returns a real round file's data region under string
// tables, indexes and trailers that lie about it, each of which must be
// refused with ErrRoundIndex.
func hostileRoundFiles(t testing.TB) map[string][]byte {
	data, end := roundFileBytes(t)
	secs, _, tab, _ := readSections(bytes.NewReader(data), int64(len(data)))
	region := data[:end]
	tail := data[len(data)-roundTrailerLen:]
	strLen := int64(binary.LittleEndian.Uint32(tail[0:4]))
	strs, idx := data[end:end+strLen], data[end+strLen:len(data)-roundTrailerLen]
	index := func(secs ...section) []byte { return appendRoundIndex(slices.Clone(region), tab.strs, secs, nil) }
	raw := func(idx []byte) []byte { return roundTail(region, strs, idx) }
	a, b, c := secs[0], secs[1], secs[2]
	flip := func(at int64) []byte {
		f := slices.Clone(data)
		f[at] ^= 1
		return f
	}
	past := func(word int) []byte {
		f := slices.Clone(data)
		binary.LittleEndian.PutUint32(f[len(f)-roundTrailerLen+word:], uint32(len(data)))
		return f
	}
	return map[string][]byte{
		"index checksum":             flip(end + strLen),
		"index past EOF":             past(8),
		"index cut short":            append(slices.Clone(data[:end+strLen+1]), tail...),
		"no sections":                raw([]byte{0}),
		"entry truncated":            raw([]byte{2, 1, 0x80}),
		"trailing index bytes":       raw(append(slices.Clone(idx), 0)),
		"duplicate seq":              index(a, b, section{a.seq, c.off, c.len}),
		"sections overlap":           index(a, section{b.seq, b.off, b.len + c.len}, c),
		"section past the data":      index(a, b, section{c.seq, c.off, c.len + 1}),
		"sections short":             index(a, b),
		"section too small":          index(section{a.seq, 0, minSection - 1}),
		"seq not the segment's":      index(a, b, section{c.seq + 100, c.off, c.len}),
		"dead mark of a section":     appendRoundIndex(slices.Clone(region), tab.strs, secs, []uint64{99, b.seq}),
		"dead mark truncated":        raw(append(slices.Clone(idx[:len(idx)-1]), 1)),
		"string table checksum":      flip(end),
		"string table past EOF":      past(0),
		"string table truncated":     roundTail(region, strs[:len(strs)-1], idx),
		"string table count":         roundTail(region, append(binary.AppendUvarint(nil, uint64(len(tab.strs)+1)), strs[1:]...), idx),
		"string table trailing byte": roundTail(region, append(slices.Clone(strs), 0), idx),
		"short of a trailer":         []byte("0123456789" + roundTrailer),
	}
}

func TestRoundIndexHostile(t *testing.T) {
	dir := t.TempDir()
	for name, file := range hostileRoundFiles(t) {
		path := filepath.Join(dir, "hostile"+segFileExt) // names no seq: OpenSegment parses every section
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSegment(path); !errors.Is(err, ErrRoundIndex) {
			t.Errorf("%s: OpenSegment = %v, want ErrRoundIndex", name, err)
		}
		if _, err := OpenStore(dir); !errors.Is(err, ErrRoundIndex) {
			t.Errorf("%s: OpenStore = %v, want ErrRoundIndex", name, err)
		}
	}
}

// hostileTableFiles returns round files whose index is sound but whose
// sections name strings their file does not hold: each must fail to open,
// with an error.
func hostileTableFiles(t testing.TB) map[string][]byte {
	data, end := roundFileBytes(t)
	secs, _, tab, _ := readSections(bytes.NewReader(data), int64(len(data)))
	region := data[:end]
	// v6Index frames the region under the round trailer of codec v6, which
	// this build no longer reads: no string table.
	v6Index := func() []byte {
		idx := binary.AppendUvarint(nil, uint64(len(secs)))
		for _, sc := range secs {
			idx = binary.AppendUvarint(binary.AppendUvarint(idx, sc.seq), uint64(sc.len))
		}
		idx = binary.AppendUvarint(idx, 0)
		b := append(slices.Clone(region), idx...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(idx)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(idx, crcTable))
		return append(b, "HPSEGRX1"...)
	}
	return map[string][]byte{
		"entry past the table":      appendRoundIndex(slices.Clone(region), tab.strs[:len(tab.strs)-1], secs, nil),
		"empty table":               appendRoundIndex(slices.Clone(region), nil, secs, nil),
		"sections under v6's index": v6Index(),
		"a section alone":           slices.Clone(region[:secs[0].len]),
	}
}

// TestStringTableHostile: a section that names an entry past its file's
// string table, or lies in a file without one, fails to open with an
// error — never a panic, never a section with a missing name.
func TestStringTableHostile(t *testing.T) {
	dir := t.TempDir()
	for name, file := range hostileTableFiles(t) {
		path := filepath.Join(dir, "hostile"+segFileExt)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSegment(path); err == nil {
			t.Errorf("%s: OpenSegment succeeded", name)
		}
		if _, err := OpenStore(dir); err == nil {
			t.Errorf("%s: OpenStore succeeded", name)
		}
	}
}

// FuzzRoundIndex: on arbitrary file bytes the round-index reader never
// panics, fails only with ErrRoundIndex, and what it accepts tiles the
// data region with distinct seqs beside a string table that fits the file;
// parsing the sections never panics.
func FuzzRoundIndex(f *testing.F) {
	data, _ := roundFileBytes(f)
	f.Add(data)
	for _, files := range []map[string][]byte{hostileRoundFiles(f), hostileTableFiles(f)} {
		for _, name := range slices.Sorted(maps.Keys(files)) {
			f.Add(files[name])
		}
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		r, size := bytes.NewReader(file), int64(len(file))
		secs, dead, tab, err := readSections(r, size)
		if err != nil && !errors.Is(err, ErrRoundIndex) {
			t.Fatalf("untyped error: %v", err)
		}
		off, seen := int64(0), make(map[uint64]bool)
		for _, sc := range secs {
			if sc.off != off || sc.len < minSection || seen[sc.seq] {
				t.Fatalf("accepted section %+v after %d bytes", sc, off)
			}
			seen[sc.seq] = true
			off += sc.len
		}
		strBytes := int64(0)
		for _, s := range tab.list() {
			strBytes += int64(len(s))
		}
		if off+strBytes > size {
			t.Fatalf("sections run to %d and strings take %d of %d bytes", off, strBytes, size)
		}
		for _, seq := range dead {
			if seen[seq] {
				t.Fatalf("accepted a dead mark of section %d", seq)
			}
		}
		parseSections(r, size, "fuzz", nil)
	})
}

// TestFaultAddTableLeavesCatalog: an AddTable whose commit fails leaves
// the catalog, in memory and on disk, as it was, and no temp file behind.
func TestFaultAddTableLeavesCatalog(t *testing.T) {
	rec := fsystest.Install(t)
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	if err := s.AddTable("events"); err != nil {
		t.Fatal(err)
	}
	fault := errors.New("injected rename failure")
	rec.Fail(func(op fsystest.Op) error {
		if op.Kind == "rename" && filepath.Base(op.Path) == tablesManifest+fsys.TempExt {
			return fault
		}
		return nil
	})
	err = s.AddTable("jobs")
	rec.Fail(nil)
	if !errors.Is(err, fault) {
		t.Fatalf("AddTable under a failing rename: %v, want %v", err, fault)
	}
	want := []string{"events"}
	if got := s.Tables(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tables %v after the failed commit, want %v", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, tablesManifest+fsys.TempExt)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the failed commit left its temp file: %v", err)
	}
	s.Close()
	if s, err = OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	if got := s.Tables(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tables %v after a reopen, want %v", got, want)
	}
}

// roundImage runs one flush round of 64 partitions of the same size, each
// with column names and dictionary values of its own, then a second over
// the first 40 and a compaction round, which merges those 40 and copies
// the other 24 out of the first file. It returns the bytes of every file
// of dir after the flush rounds and after the compaction round, by stage
// and name.
func roundImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	parts := func(n int, ts int64) []FlushPart {
		var out []FlushPart
		for p := 0; p < n; p++ {
			rows := make([]Row, 200)
			for i := range rows {
				rows[i] = MapRow(EncodeTS(int64(1000+i)), ts+int64(i), map[string]string{
					"source": fmt.Sprintf("src-%d-%d", p, i%7), fmt.Sprintf("col%d", p): fmt.Sprint(i), "amount": "1",
				})
			}
			out = append(out, FlushPart{"events", fmt.Sprintf("p%02d", p), rows})
		}
		return out
	}
	files := make(map[string][]byte)
	snap := func(stage string) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.Type().IsRegular() {
				if files[stage+"/"+e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := s.FlushRound(parts(64, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushRound(parts(40, 1000)); err != nil {
		t.Fatal(err)
	}
	snap("flushed")
	if n, err := s.CompactOverflow(1); err != nil || n != 40 {
		t.Fatalf("compacted %d partitions: %v", n, err)
	}
	snap("compacted")
	return files
}

// TestRoundFilesReproducible: the same flush and compaction rounds write
// the same bytes, however the round's workers finish — each section
// interns its footer strings and takes its offset in section order.
func TestRoundFilesReproducible(t *testing.T) {
	want := roundImage(t, t.TempDir())
	if len(want) == 0 {
		t.Fatal("the rounds wrote no file")
	}
	for run := 1; run < 10; run++ {
		got := roundImage(t, t.TempDir())
		if !slices.Equal(slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want))) {
			t.Fatalf("run %d wrote files %v, run 0 %v", run, slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
		}
		for _, name := range slices.Sorted(maps.Keys(want)) {
			if b := want[name]; !bytes.Equal(got[name], b) {
				t.Fatalf("run %d: %s differs from run 0's (%d and %d bytes)", run, name, len(got[name]), len(b))
			}
		}
	}
}
