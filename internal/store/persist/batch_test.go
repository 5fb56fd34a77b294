package persist

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// refBlock decodes a block the reference way: StringDec.Row until the
// bytes run out.
func refBlock(blk string, ids []uint32) ([]Row, error) {
	d := NewStringDec(blk)
	var rows []Row
	var arena []Col
	for d.Rest() > 0 {
		r, err := d.Row(ids, &arena)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// checkBatch asserts b holds exactly rows, restricted to project.
func checkBatch(t testing.TB, b *Batch, rows []Row, project []uint32) {
	t.Helper()
	if b.Len() != len(rows) || len(b.WriteTS) != len(rows) {
		t.Fatalf("batch has %d rows (%d write timestamps), want %d", b.Len(), len(b.WriteTS), len(rows))
	}
	for i, want := range rows {
		if b.Keys()[i] != want.Key || b.WriteTS[i] != want.WriteTS {
			t.Fatalf("row %d: (%q, %d), want (%q, %d)", i, b.Keys()[i], b.WriteTS[i], want.Key, want.WriteTS)
		}
		got := b.Row(i)
		if got.Key != want.Key || got.WriteTS != want.WriteTS {
			t.Fatalf("row %d: Row() = (%q, %d)", i, got.Key, got.WriteTS)
		}
		if project == nil {
			if !slices.Equal(got.Cols(), want.Cols()) {
				t.Fatalf("row %d cells %v, want %v", i, got.Cols(), want.Cols())
			}
			continue
		}
		for _, id := range project {
			if v := b.Col(id)[i]; v != want.ColID(id) {
				t.Fatalf("row %d column %d: %q, want %q", i, id, v, want.ColID(id))
			}
			if v := got.ColID(id); v != want.ColID(id) {
				t.Fatalf("row %d column %d through Row(): %q, want %q", i, id, v, want.ColID(id))
			}
		}
	}
}

// blockScanner readies a scanner to decode raw block bytes of a segment
// with the name table ids.
func blockScanner(ids, project []uint32) *BatchScanner {
	sc := &BatchScanner{buf: &scanBufs{}}
	sc.s = &Segment{path: "fuzz", colIDs: ids, meta: &footerMeta{ColNames: make([]string, len(ids))}}
	sc.b.setProject(project)
	if project != nil {
		for _, id := range ids {
			sc.slots = append(sc.slots, int32(slices.Index(sc.b.project, id)))
		}
	}
	return sc
}

// rawBlocks returns the bytes of every block of seg.
func rawBlocks(t testing.TB, seg *Segment) [][]byte {
	t.Helper()
	var out [][]byte
	for i := range seg.meta.Index {
		lo, hi := seg.blockBounds(i)
		blk := make([]byte, hi-lo)
		if _, err := seg.file.f.ReadAt(blk, seg.base+lo); err != nil {
			t.Fatal(err)
		}
		out = append(out, blk)
	}
	return out
}

// FuzzDecodeBlockProjected: on arbitrary block bytes the block decoder —
// with every projection of a small column table, including none and all —
// reads a v4 block exactly as StringDec.Row does, accepting and rejecting
// the same bytes, and reads a v5 block under a projection as it reads it
// whole, never taking more arena than 64 times the block.
func FuzzDecodeBlockProjected(f *testing.F) {
	ids := []uint32{InternColumn("fz-a"), InternColumn("fz-b"), InternColumn("fz-c"), InternColumn("fz-a")}
	var tb colTableEnc
	var blk []byte
	for i, r := range benchSegmentRows(3) {
		r.cols = []Col{{ID: ids[0], Value: "x"}, {ID: ids[1], Value: fmt.Sprint(i)}, {ID: ids[2], Value: ""}}
		blk = appendRowBody(blk, r, &tb)
	}
	f.Add(blk, uint8(0b101))
	f.Add(blk[:len(blk)-3], uint8(0b111))
	f.Add([]byte("\x01k\x02\x02\x00\x01a\x03\x01b"), uint8(0b001)) // columns 0 and 3 share an ID
	f.Add([]byte("\x01k\x02\x01\x09\x00"), uint8(0))               // unknown column index
	f.Add([]byte{}, uint8(0))
	// v5 blocks in every encoding, over the same three names: constant,
	// 4-bit and 8-bit dictionary, plain, front-coded, sparse.
	var rows []Row
	for i := 0; i < indexEvery+5; i++ {
		cols := []Col{{ID: ids[0], Value: "x"}, {ID: ids[1], Value: fmt.Sprint(i % 20)}}
		if i%3 > 0 {
			cols = append(cols, Col{ID: ids[2], Value: strings.Repeat("long shared head ", 2) + fmt.Sprint(i*i)})
		}
		if i > indexEvery {
			cols[1].Value = fmt.Sprint(i % 2)
		}
		rows = append(rows, Row{Key: EncodeTS(int64(i)) + ":k", WriteTS: int64(i * 3 % 7), cols: cols})
	}
	w := NewWriter("t", "p", 1)
	if err := w.SetZoneColumns([]string{}); err != nil {
		f.Fatal(err)
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	seg, err := w.Finish(filepath.Join(f.TempDir(), "seed.seg"))
	if err != nil {
		f.Fatal(err)
	}
	for _, blk := range rawBlocks(f, seg) {
		f.Add(blk, uint8(0b110))
		f.Add(blk[:len(blk)/2], uint8(0b011))
	}
	seg.Close()

	f.Fuzz(func(t *testing.T, data []byte, mask uint8) {
		blk := string(data)
		projections := [][]uint32{{}}
		var p []uint32
		for j, id := range ids[:3] {
			if mask&(1<<j) != 0 {
				p = append(p, id)
			}
		}
		if mask&(1<<3) != 0 {
			slices.Reverse(p)
		}
		projections = append(projections, p)

		want, wantErr := refBlock(blk, ids)
		if wantErr == nil && len(want) > MaxBatchRows {
			wantErr = fmt.Errorf("%d rows", len(want))
		}
		for _, project := range append(projections, nil) {
			sc := blockScanner(ids, project)
			b, err := &sc.b, sc.decodeV4(blk)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("v4, projection %v: err = %v, StringDec.Row says %v", project, err, wantErr)
			}
			if err == nil {
				checkBatch(t, b, want, project)
			}
		}

		whole := blockScanner(ids, nil)
		wholeErr := whole.decode(blk)
		var rows []Row
		for i := 0; wholeErr == nil && i < whole.b.Len(); i++ {
			rows = append(rows, whole.b.Row(i))
		}
		for _, project := range projections {
			sc := blockScanner(ids, project)
			err := sc.decode(blk)
			if cap(sc.buf.arena) > 64*len(data) {
				t.Fatalf("a %d-byte block made the decoder take a %d-byte arena", len(data), cap(sc.buf.arena))
			}
			if wholeErr != nil {
				continue // the damage may sit in a chunk the projection hops over
			}
			if err != nil {
				t.Fatalf("v5, projection %v: %v, though the whole block decodes", project, err)
			}
			checkBatch(t, &sc.b, rows, project)
		}
	})
}

// collectBatches drains a batch iterator into deep-copied rows.
func collectBatches(t testing.TB, src BatchIterator) []Row {
	t.Helper()
	defer src.Close()
	var rows []Row
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		if b.Len() == 0 || b.Len() > indexEvery {
			t.Fatalf("batch of %d rows", b.Len())
		}
		// Keys last: building them on first use must leave intact what was
		// read before, and agree with the timestamps walked off the chunk.
		ts := slices.Clone(b.TS())
		var cols [][]string
		for _, id := range b.project {
			col := slices.Clone(b.Col(id))
			for i, v := range col {
				col[i] = strings.Clone(v)
			}
			cols = append(cols, col)
		}
		for i, k := range b.Keys() {
			if ts[i] != tsOf(k) {
				t.Fatalf("key %q: TS() read %d before the keys were built", k, ts[i])
			}
		}
		for j, id := range b.project {
			if !slices.Equal(b.Col(id), cols[j]) {
				t.Fatalf("column %s changed when the keys were built", ColumnName(id))
			}
		}
		for i := range b.Len() {
			// Deep copy: the batch's strings die with the next block.
			r := b.Row(i)
			cp := Row{Key: strings.Clone(r.Key), WriteTS: r.WriteTS}
			for _, c := range r.Cols() {
				cp.cols = append(cp.cols, Col{ID: c.ID, Value: strings.Clone(c.Value)})
			}
			rows = append(rows, cp)
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestScanBatchesMatchesScan: over random ranges and projections, the
// batch scan of a segment yields the rows of the Row scan — whole, or cut
// to the projection's non-empty cells — also when the block buffer is
// poisoned between batches and the keys are asked for after every column.
func TestScanBatchesMatchesScan(t *testing.T) {
	PoisonBatches.Store(true)
	defer PoisonBatches.Store(false)
	rng := rand.New(rand.NewSource(7))
	names := []string{"amount", "source", "raw", "attr.ost", "attr.errno"}
	var all []uint32
	for _, n := range names {
		all = append(all, InternColumn(n))
	}
	const nRows = 1000
	w := NewWriter("events", "p", 1)
	for i := 0; i < nRows; i++ {
		var cols []Col
		for j, id := range all {
			if rng.Intn(3) > 0 {
				v := fmt.Sprintf("v%d-%d", j, rng.Intn(50))
				if names[j] == "raw" {
					v = "long enough to be front-coded next to the keys: " + v
				}
				cols = append(cols, Col{ID: id, Value: v})
			}
		}
		if err := w.Append(MakeRow(EncodeTS(int64(1000+i))+":s", int64(i+1), cols)); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := w.Finish(filepath.Join(t.TempDir(), "b.seg"))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	for trial := 0; trial < 200; trial++ {
		var rg Range
		if rng.Intn(4) > 0 {
			rg.From = EncodeTS(int64(900 + rng.Intn(1200)))
		}
		if rng.Intn(4) > 0 {
			rg.To = EncodeTS(int64(900 + rng.Intn(1200)))
		}
		var project []uint32
		if rng.Intn(4) > 0 {
			project = []uint32{}
			for _, k := range rng.Perm(len(all))[:rng.Intn(len(all)+1)] {
				project = append(project, all[k])
			}
		}
		it, err := seg.Scan(rg)
		if err != nil {
			t.Fatal(err)
		}
		var want []Row
		for r, ok := it.Next(); ok; r, ok = it.Next() {
			if project != nil {
				var cols []Col
				for _, c := range r.Cols() {
					if slices.Contains(project, c.ID) && c.Value != "" {
						cols = append(cols, c)
					}
				}
				r = Row{Key: r.Key, WriteTS: r.WriteTS, cols: cols}
			}
			want = append(want, r)
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		bs, err := ChainBatches(rg, []*Segment{seg}, []ScanConfig{{Project: project}})
		if err != nil {
			t.Fatal(err)
		}
		if got := collectBatches(t, bs); !sameRows(got, want) {
			t.Fatalf("range %+v projection %v: batch scan yields %d rows that differ from the row scan's %d", rg, project, len(got), len(want))
		}
		// The rows→Batch adapter must agree with the block decoder.
		if got := collectBatches(t, BatchRows(NewSliceIter(want), project)); !sameRows(got, want) {
			t.Fatalf("range %+v projection %v: BatchRows changes the rows", rg, project)
		}
	}
}
