package persist

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// Flush writes rows as a new immutable segment of the partition — a
// flush round of one.
func (s *Store) Flush(table, pkey string, rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	return s.FlushRound([]FlushPart{{table, pkey, rows}})
}

// sameRows compares logical row content (key, write timestamp, cells)
// across representations: scans yield compact rows while fixtures build
// map rows.
func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].WriteTS != b[i].WriteTS {
			return false
		}
		am, bm := a[i].ColumnsMap(), b[i].ColumnsMap()
		if len(am) != len(bm) {
			return false
		}
		for k, v := range am {
			if bm[k] != v {
				return false
			}
		}
	}
	return true
}

func testRows(n int, writeTS int64) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = MapRow(EncodeTS(int64(1000+i))+fmt.Sprintf(":src%03d", i), writeTS+int64(i), map[string]string{"count": fmt.Sprint(i), "msg": "hello world"})
	}
	return rows
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := testRows(10, 1)
	rows = append(rows, Row{Key: "zz-no-columns", WriteTS: 99})
	buf := AppendRowsBlock(nil, rows)
	got, err := DecodeRowsBlock(NewStringDec(string(buf)), DefaultDict())
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(got, rows) {
		t.Fatalf("round trip mismatch: got %d rows %+v want %d", len(got), got, len(rows))
	}
	if d := NewStringDec(string(buf[:len(buf)-1])); true {
		if _, err := DecodeRowsBlock(d, DefaultDict()); err == nil {
			t.Fatal("expected error decoding truncated block")
		}
	}
}

func writeTestSegment(t *testing.T, path string, rows []Row) *Segment {
	t.Helper()
	w := NewWriter("events", "p1", 1)
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := w.Finish(path)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// Scan streams the segment's rows within rg in clustering-key order.
func (s *Segment) Scan(rg Range) (Iterator, error) {
	return s.ScanPruned(rg, ScanConfig{})
}

// sliceIter streams a sorted run of rows, as a merge input does.
func sliceIter(rows []Row) Iterator { return &cursor{run: rows} }

func drain(t testing.TB, it Iterator) []Row {
	t.Helper()
	defer it.Close()
	var out []Row
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSegmentWriteScan(t *testing.T) {
	rows := testRows(500, 1)
	seg := writeTestSegment(t, filepath.Join(t.TempDir(), "1.seg"), rows)
	defer seg.Close()
	if seg.Rows() != 500 || seg.Table() != "events" || seg.Partition() != "p1" {
		t.Fatalf("footer mismatch: %d rows, %s/%s", seg.Rows(), seg.Table(), seg.Partition())
	}
	min, max := seg.KeyRange()
	if min != rows[0].Key || max != rows[len(rows)-1].Key {
		t.Fatalf("key range [%s, %s]", min, max)
	}
	if lo, hi := seg.TimeRange(); lo != 1000 || hi != 1499 {
		t.Fatalf("time range [%d, %d], want [1000, 1499]", lo, hi)
	}
	if err := seg.Verify(); err != nil {
		t.Fatal(err)
	}
	it, err := seg.Scan(Range{})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	if !sameRows(got, rows) {
		t.Fatalf("full scan mismatch: %d rows vs %d", len(got), len(rows))
	}
	// Sub-range scans hit the sparse index at arbitrary offsets.
	for _, span := range [][2]int{{0, 10}, {63, 64}, {64, 129}, {100, 400}, {495, 500}, {250, 250}} {
		rg := Range{From: rows[span[0]].Key}
		if span[1] < len(rows) {
			rg.To = rows[span[1]].Key
		}
		it, err := seg.Scan(rg)
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, it)
		want := rows[span[0]:span[1]]
		if len(got) != len(want) {
			t.Fatalf("range %v: got %d rows, want %d", span, len(got), len(want))
		}
		if len(want) > 0 && !sameRows(got, want) {
			t.Fatalf("range %v content mismatch", span)
		}
	}
	// Non-overlapping ranges are pruned without touching the file.
	it, err = seg.Scan(Range{From: "zzz"})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it); len(got) != 0 {
		t.Fatalf("pruned scan returned %d rows", len(got))
	}
}

func TestStoreFlushCompactLWW(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Three generations of the same 100 keys with rising WriteTS.
	for gen := int64(0); gen < 3; gen++ {
		rows := make([]Row, 100)
		for i := range rows {
			rows[i] = MapRow(fmt.Sprintf("k%03d", i), gen*1000+int64(i), map[string]string{"gen": fmt.Sprint(gen)})
		}
		if err := s.Flush("t", "p", rows); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Segments("t", "p")); got != 3 {
		t.Fatalf("segments = %d, want 3", got)
	}
	did, err := s.CompactPartition("t", "p", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !did {
		t.Fatal("expected compaction")
	}
	segs := s.Segments("t", "p")
	if len(segs) != 1 {
		t.Fatalf("segments after compact = %d, want 1", len(segs))
	}
	it, err := segs[0].Scan(Range{})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	if len(got) != 100 {
		t.Fatalf("compacted rows = %d, want 100", len(got))
	}
	for _, r := range got {
		if r.Col("gen") != "2" {
			t.Fatalf("row %s survived from gen %s, want 2 (LWW)", r.Key, r.Col("gen"))
		}
	}
	st := s.Stats()
	if st.Compactions != 1 || st.CompactedSegments != 3 || st.Segments != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStoreReopenLoadsSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(50, 1)
	if err := s.Flush("events", "p1", rows); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush("events", "p2", rows); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush("runs", "q", rows[:5]); err != nil {
		t.Fatal(err)
	}
	if got := s.MaxWriteTS(); got != 50 {
		t.Fatalf("MaxWriteTS = %d, want 50", got)
	}
	s.Close()
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	parts := s2.Partitions()
	if len(parts["events"]) != 2 || len(parts["runs"]) != 1 {
		t.Fatalf("partitions after reopen: %v", parts)
	}
	it, err := s2.Segments("events", "p2")[0].Scan(Range{})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it); !sameRows(got, rows) {
		t.Fatal("reopened segment content mismatch")
	}
}

func TestCompactionSafeWithOpenIterator(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for gen := int64(0); gen < 2; gen++ {
		rows := testRows(100, gen*100+1)
		if err := s.Flush("t", "p", rows); err != nil {
			t.Fatal(err)
		}
	}
	old := s.Segments("t", "p")[0]
	it, err := old.Scan(Range{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompactPartition("t", "p", 1); err != nil {
		t.Fatal(err)
	}
	// The retired segment's file is unlinked, but the open iterator keeps
	// streaming off the live descriptor.
	got := drain(t, it)
	if len(got) != 100 {
		t.Fatalf("iterator over retired segment returned %d rows", len(got))
	}
	// New scans of the retired segment must fail cleanly.
	if _, err := old.Scan(Range{}); err == nil {
		t.Fatal("expected error scanning retired segment")
	}
}

func TestMergeItersLWW(t *testing.T) {
	older := []Row{
		MapRow("a", 1, map[string]string{"v": "old"}),
		MapRow("b", 5, map[string]string{"v": "keep"}),
	}
	newer := []Row{
		MapRow("a", 2, map[string]string{"v": "new"}),
		MapRow("b", 5, map[string]string{"v": "tie-greater-wins"}),
		MapRow("c", 1, map[string]string{"v": "only"}),
	}
	got := drain(t, MergeIters([]Iterator{sliceIter(older), sliceIter(newer)}))
	if len(got) != 3 {
		t.Fatalf("merged %d rows, want 3", len(got))
	}
	if got[0].Col("v") != "new" || got[1].Col("v") != "tie-greater-wins" || got[2].Col("v") != "only" {
		t.Fatalf("LWW merge wrong: %+v", got)
	}
	// Swapping the inputs changes nothing: a WriteTS tie goes to the
	// greater cells, not to an input's place.
	swapped := drain(t, MergeIters([]Iterator{sliceIter(newer), sliceIter(older)}))
	if !reflect.DeepEqual(swapped, got) {
		t.Fatalf("swapped inputs merged to %+v, want %+v", swapped, got)
	}
}
