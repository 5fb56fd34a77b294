package persist

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSealedSegmentMatchesOpenSegment holds the shortcut to its
// reference: the segments a flush round and a compaction round register
// from their writers' in-memory footers (or, for a compaction's copies,
// from the footers they were copied from) are, field for field, what
// OpenSegment parses back from the sections of the one file each round
// wrote — at offset zero and beyond it — and scan the same.
func TestSealedSegmentMatchesOpenSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check := func(what string) {
		t.Helper()
		inside := 0
		for _, pkey := range []string{"p0", "p1", "p2"} {
			for _, seg := range s.Segments("events", pkey) {
				// Named by seq: a section past the first of its file is found
				// by the round index, as the traced benchmark ladder opens it.
				ref, err := OpenSegment(filepath.Join(dir, fmt.Sprintf("%020d%s", seg.Seq(), segFileExt)))
				if err != nil {
					t.Fatal(err)
				}
				if seg.base > 0 {
					inside++
				}
				if !reflect.DeepEqual(seg.meta, ref.meta) {
					t.Errorf("%s %s: footer held by the writer differs from the parsed one:\n%+v\n%+v", what, pkey, seg.meta, ref.meta)
				}
				if !reflect.DeepEqual(seg.colIDs, ref.colIDs) || seg.size != ref.size || seg.footOff != ref.footOff || seg.base != ref.base ||
					seg.path != ref.path || seg.root != ref.root || (seg.tree == nil) != (ref.tree == nil) {
					t.Errorf("%s %s: colIDs %v/%v size %d/%d footOff %d/%d base %d/%d path %s/%s", what, pkey,
						seg.colIDs, ref.colIDs, seg.size, ref.size, seg.footOff, ref.footOff, seg.base, ref.base,
						seg.path, ref.path)
				}
				if err := seg.Verify(); err != nil {
					t.Errorf("%s %s: %v", what, pkey, err)
				}
				a, _ := seg.Scan(Range{})
				b, _ := ref.Scan(Range{})
				if !sameRows(drain(t, a), drain(t, b)) {
					t.Errorf("%s %s: scans differ", what, pkey)
				}
				ref.Close()
			}
		}
		if inside == 0 {
			t.Fatalf("%s: no segment at a non-zero offset of its file", what)
		}
	}
	// 200 rows = three full blocks and a short one; 1 row = one block.
	if err := s.FlushRound([]FlushPart{{"events", "p0", zonedRows(200, 1)}, {"events", "p1", zonedRows(1, 1)}, {"events", "p2", zonedRows(70, 1)}}); err != nil {
		t.Fatal(err)
	}
	check("flushed")
	// Compacting p0 and p1 re-homes p2, its data region copied and its
	// footer encoded anew, in the round's file.
	if err := s.FlushRound([]FlushPart{{"events", "p0", zonedRows(90, 1000)}, {"events", "p1", zonedRows(70, 1000)}}); err != nil {
		t.Fatal(err)
	}
	if n, err := s.CompactOverflow(1); err != nil || n != 2 {
		t.Fatalf("compacted %d partitions, err=%v", n, err)
	}
	check("compacted")
}

// zonedRows is testRows with a numeric and a string column of
// DefaultZoneColumns ("amount", "source") beside one outside it ("msg"),
// the other zone columns absent: the footers compared carry zone maps.
func zonedRows(n int, writeTS int64) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = MapRow(EncodeTS(int64(1000+i))+fmt.Sprintf(":src%03d", i), writeTS+int64(i),
			map[string]string{"amount": fmt.Sprint(i), "source": fmt.Sprintf("c0-0c0s%dn%d", i/4, i%4), "msg": "hello world"})
	}
	return rows
}

// smallParts builds n single-block parts of rows that are already compact
// and share their strings, so a round over them allocates only what the
// round itself needs.
func smallParts(n int, rows []Row) []FlushPart {
	parts := make([]FlushPart, n)
	for i := range parts {
		parts[i] = FlushPart{"events", fmt.Sprintf("p%03d", i), rows}
	}
	return parts
}
