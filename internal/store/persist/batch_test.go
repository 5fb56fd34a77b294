package persist

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

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

// blockScanner readies a scanner to decode raw block bytes of seg.
func blockScanner(seg *Segment, project []uint32) *BatchScanner {
	sc := &BatchScanner{buf: &scanBufs{}}
	sc.s = seg
	sc.b.setProject(project)
	if project != nil {
		for _, id := range seg.colIDs {
			sc.slots = append(sc.slots, int32(slices.Index(sc.b.project, id)))
		}
		sc.widen()
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

// fuzzSection writes the section the block fuzzer reads its bytes
// against: over six names, blocks in every encoding — constant (fz-a),
// section codes of both widths (fz-b), front-coded (fz-c), 4-bit and 8-bit
// dictionary (fz-d, whose rows without a cell keep it out of a section
// dictionary), plain (fz-e) and templates (raw), with cells that fit no
// template — most of them sparse.
func fuzzSection(t testing.TB) (*Segment, []uint32) {
	ids := []uint32{InternColumn("fz-a"), InternColumn("fz-b"), InternColumn("fz-c"), templateColID,
		InternColumn("fz-d"), InternColumn("fz-e")}
	var rows []Row
	for i := 0; i < 3*indexEvery+5; i++ {
		b, d := fmt.Sprint(i%20), fmt.Sprint(i%7)
		if i > 2*indexEvery {
			b, d = fmt.Sprint(i%2), fmt.Sprint(i%19)
		}
		cols := []Col{{ID: ids[0], Value: "x"}, {ID: ids[1], Value: b}, {ID: ids[5], Value: fmt.Sprint(i * 7919)}}
		if i%3 > 0 {
			cols = append(cols, Col{ID: ids[2], Value: strings.Repeat("long shared head ", 2) + fmt.Sprint(i*i)})
		}
		if i%4 > 0 {
			raw := "b=" + b + " seen"
			if i%4 == 3 {
				raw = fmt.Sprintf("free text %d", i*i)
			}
			cols = append(cols, Col{ID: ids[3], Value: raw})
		}
		if i%5 > 0 {
			cols = append(cols, Col{ID: ids[4], Value: d})
		}
		rows = append(rows, MakeRow(EncodeTS(int64(i))+":k", int64(i*3%7), cols))
	}
	w := NewWriter("t", "p", 1)
	if err := w.SetZoneColumns([]string{}); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := w.Finish(filepath.Join(t.TempDir(), "seed.seg"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	return seg, ids
}

// FuzzDecodeBlockProjected: on arbitrary block bytes, read against the
// dictionaries and templates of a v6 section, the block decoder — with
// every projection of the section's column table, including none and all —
// reads a block under a projection as it reads it whole, and reassembles
// a templated cell as it does whole, never taking more arena than 64
// times the block. Codes past their tables and holes in columns the block
// lacks fail, whole and projected alike (TestDecodeRejectsCodesPastTables).
func FuzzDecodeBlockProjected(f *testing.F) {
	seg, ids := fuzzSection(f)
	encs := make(map[byte]bool)
	for _, blk := range rawBlocks(f, seg) {
		var v parsedBlock
		if err := v.parse(string(blk), seg.meta, seg.colIDs, nil); err != nil {
			f.Fatal(err)
		}
		for _, c := range v.cols {
			encs[c.enc] = true
		}
		f.Add(blk, uint8(0b0110110))
		f.Add(blk, uint8(0b1001000))
		f.Add(blk[:len(blk)/2], uint8(0b0010011))
	}
	if len(encs) != encKinds {
		f.Fatalf("the seed section uses encodings %v, not all %d", encs, encKinds)
	}
	for _, blk := range hostileBlocks(f, seg) {
		f.Add(blk, uint8(0b0111111))
	}
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, mask uint8) {
		blk := string(data)
		projections := [][]uint32{{}}
		var p []uint32
		for j, id := range ids {
			if mask&(1<<j) != 0 {
				p = append(p, id)
			}
		}
		if mask&(1<<6) != 0 {
			slices.Reverse(p)
		}
		projections = append(projections, p)

		whole := blockScanner(seg, nil)
		wholeErr := whole.decode(blk)
		var rows []Row
		for i := 0; wholeErr == nil && i < whole.b.Len(); i++ {
			rows = append(rows, whole.b.Row(i))
		}
		for _, project := range projections {
			sc := blockScanner(seg, project)
			err := sc.decode(blk)
			if cap(sc.buf.arena) > 64*len(data) {
				t.Fatalf("a %d-byte block made the decoder take a %d-byte arena", len(data), cap(sc.buf.arena))
			}
			if wholeErr != nil {
				continue // the damage may sit in a chunk the projection hops over
			}
			if err != nil {
				t.Fatalf("projection %v: %v, though the whole block decodes", project, err)
			}
			checkBatch(t, &sc.b, rows, project)
		}
	})
}

// rawChunk is one column of a block's directory as its bytes lie: name
// index, tag and chunk, which starts at off in the block.
type rawChunk struct {
	local uint64
	tag   byte
	off   int
	data  string
}

// blockDir walks the directory of a well-formed block: its head (row
// count, key and write-ts chunks) and its columns.
func blockDir(t testing.TB, blk string) (head string, cols []rawChunk) {
	t.Helper()
	d := StringDec{s: blk}
	n, err := d.Uvarint()
	if err == nil {
		_, err = d.String()
	}
	if err == nil {
		_, err = d.String()
	}
	head = blk[:d.pos]
	ncols, err2 := d.Uvarint()
	if err != nil || err2 != nil || n == 0 {
		t.Fatalf("block head: %v %v", err, err2)
	}
	for i := uint64(0); i < ncols; i++ {
		var c rawChunk
		c.local, err = d.Uvarint()
		if err != nil {
			t.Fatal(err)
		}
		c.tag = blk[d.pos]
		d.pos++
		if c.data, err = d.String(); err != nil {
			t.Fatal(err)
		}
		c.off = d.pos - len(c.data)
		cols = append(cols, c)
	}
	return head, cols
}

// hostileBlocks returns blocks of seg (fuzzSection's) damaged where v6
// reads its tables: a section code and a template code past their tables,
// and a block that uses a template without its hole column.
func hostileBlocks(t testing.TB, seg *Segment) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	bLocal := uint64(slices.Index(seg.colIDs, InternColumn("fz-b")))
	for _, blk := range rawBlocks(t, seg) {
		head, cols := blockDir(t, string(blk))
		templated := false
		for _, c := range cols {
			at := c.off
			if c.tag&encSparse != 0 {
				at += 8
			}
			switch c.tag & encMask {
			case encSection:
				if out["section"] == nil && blk[at] == 8 {
					bad := slices.Clone(blk)
					bad[at+1] = byte(len(seg.meta.Dicts[c.local].vals))
					out["section"] = bad
				}
			case encTemplate:
				for k := at; k < len(blk) && k < at+indexEvery; k++ {
					if blk[k] > 0 {
						templated = true
						if out["template"] == nil {
							bad := slices.Clone(blk)
							bad[k] = byte(len(seg.meta.Templates) + 1)
							out["template"] = bad
						}
						break
					}
				}
			}
		}
		if !templated || out["hole"] != nil {
			continue
		}
		// Drop the templates' hole column from the block.
		var kept []rawChunk
		for _, c := range cols {
			if c.local != bLocal {
				kept = append(kept, c)
			}
		}
		bad := binary.AppendUvarint([]byte(head), uint64(len(kept)))
		for _, c := range kept {
			bad = append(binary.AppendUvarint(bad, c.local), c.tag)
			bad = appendChunk(bad, []byte(c.data))
		}
		out["hole"] = bad
	}
	for _, name := range []string{"section", "template", "hole"} {
		if out[name] == nil {
			t.Fatalf("the seed section has no block to damage as %q", name)
		}
	}
	return out
}

// TestDecodeRejectsCodesPastTables: a section code or a template code past
// its table, and a template whose hole column the block lacks, fail the
// block, whole and under every projection that reads the column.
func TestDecodeRejectsCodesPastTables(t *testing.T) {
	seg, ids := fuzzSection(t)
	for name, blk := range hostileBlocks(t, seg) {
		for _, project := range [][]uint32{nil, ids, {templateColID}, {InternColumn("fz-b")}} {
			if name != "section" && slices.Equal(project, []uint32{InternColumn("fz-b")}) {
				continue // a projection that reads no template
			}
			sc := blockScanner(seg, project)
			if err := sc.decode(string(blk)); err == nil {
				t.Errorf("%s, projection %v: decoded", name, project)
			}
		}
	}
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
