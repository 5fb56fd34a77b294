package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hpclog/internal/fsys/fsystest"
)

// This process interns the ordered columns of the hostile generator in the
// reverse of the order the fixtures' writer did, so that the name tables of
// testdata/v8 list columns in an order that is not this reader's ID order.
var _ = [...]uint32{InternColumn("hz-ord-x"), InternColumn("hz-ord-y"), InternColumn("hz-ord-z")}

// writeV9 writes hs through the (only) writer, as seq.
func writeV9(t testing.TB, dir string, hs hostileSeg, seq uint64) *Segment {
	t.Helper()
	w := NewWriter("hostile", hs.name, seq)
	if hs.zones != nil {
		if err := w.SetZoneColumns(hs.zones); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range hs.rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := w.Finish(filepath.Join(dir, hs.name+segFileExt))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	return seg
}

// v8Fixture is the path of the checked-in v8 rendering of hs: the v8
// writer's round file of one section, written at the last commit that had
// one.
func v8Fixture(hs hostileSeg) string { return filepath.Join("testdata", "v8", hs.name+segFileExt) }

// openV8 opens the checked-in v8 rendering of hs.
func openV8(t testing.TB, hs hostileSeg) *Segment {
	t.Helper()
	seg, err := OpenSegment(v8Fixture(hs))
	if err != nil {
		t.Fatal(err)
	}
	if h := headerOf(t, seg); h != segHeaderV8 {
		t.Fatalf("fixture %s has header %q", hs.name, h)
	}
	t.Cleanup(func() { seg.Close() })
	return seg
}

// headerOf reads the header of a resident segment: its codec generation.
func headerOf(t testing.TB, seg *Segment) string {
	t.Helper()
	head := make([]byte, len(segHeader))
	if _, err := seg.file.f.ReadAt(head, seg.base); err != nil {
		t.Fatal(err)
	}
	return string(head)
}

// footerBytes reads the footer of a resident segment and splits it into
// its meta and the rest.
func footerBytes(t testing.TB, seg *Segment) (meta, rest []byte) {
	t.Helper()
	fb := make([]byte, seg.size-trailerLen-seg.footOff)
	if _, err := seg.file.f.ReadAt(fb, seg.base+seg.footOff); err != nil {
		t.Fatal(err)
	}
	d := footerDec{NewStringDec(string(fb)), tableOf(t, seg)}
	if _, err := decodeMeta(d); err != nil {
		t.Fatal(err)
	}
	n := len(fb) - d.Rest()
	return fb[:n], fb[n:]
}

// tableOf reads the string table of a resident segment's file.
func tableOf(t testing.TB, seg *Segment) *strTable {
	t.Helper()
	_, _, tab, err := readSections(seg.file.f, fileSize(t, seg.path))
	if err != nil || tab == nil {
		t.Fatalf("%s: string table %v: %v", seg.path, tab, err)
	}
	return tab
}

// batchImage is a deep copy of everything a Batch shows.
type batchImage struct {
	Keys    []string
	WriteTS []int64
	TS      []int64
	Cols    [][]string // per projected column
	Rows    []Row      // Row(i), deep
}

func imageOf(t testing.TB, b *Batch, project []uint32) batchImage {
	t.Helper()
	im := batchImage{WriteTS: slices.Clone(b.WriteTS), TS: slices.Clone(b.TS())}
	for i, k := range b.Keys() {
		im.Keys = append(im.Keys, strings.Clone(k))
		r := b.Row(i)
		cp := Row{Key: strings.Clone(r.Key), WriteTS: r.WriteTS}
		for _, c := range r.Cols() {
			cp.cols = append(cp.cols, Col{ID: c.ID, Value: strings.Clone(c.Value)})
		}
		im.Rows = append(im.Rows, cp)
		if want, err := DecodeTS(k); (err == nil && im.TS[i] != want) || (err != nil && im.TS[i] != -1) {
			t.Fatalf("TS of key %q = %d, DecodeTS says %d, %v", k, im.TS[i], want, err)
		}
	}
	for _, id := range project {
		checkTemplate(t, b, id)
		vec := b.Col(id)
		if len(vec) != b.Len() {
			t.Fatalf("column %s: vector of %d for %d rows", ColumnName(id), len(vec), b.Len())
		}
		col := make([]string, len(vec))
		for i, v := range vec {
			col[i] = strings.Clone(v)
		}
		im.Cols = append(im.Cols, col)
		codes, dict := b.Dict(id)
		if dict == nil {
			continue
		}
		if len(codes) != len(vec) {
			t.Fatalf("column %s: dictionary with %d codes for %d rows", ColumnName(id), len(codes), len(vec))
		}
		for i, c := range codes {
			if dict[c] != vec[i] {
				t.Fatalf("column %s row %d: dict[%d] = %q, vector says %q", ColumnName(id), i, c, dict[c], vec[i])
			}
		}
	}
	return im
}

func batchImages(t testing.TB, seg *Segment, rg Range, cfg ScanConfig) []batchImage {
	t.Helper()
	sc, err := ChainBatches(rg, false, []*Segment{seg}, []ScanConfig{cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var out []batchImage
	for {
		b, ok := sc.Next()
		if !ok {
			break
		}
		out = append(out, imageOf(t, b, cfg.Project))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func scanRows(t testing.TB, seg *Segment, rg Range, cfg ScanConfig) []Row {
	t.Helper()
	it, err := seg.ScanPruned(rg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return drain(t, it)
}

// checkTemplate holds a column in template form to its reassembled
// vector: each row's template filled with the row's cells of its holes, or
// its cell stored whole. Call it before Col, which reassembles.
func checkTemplate(t testing.TB, b *Batch, id uint32) {
	t.Helper()
	codes, tmpls, cells := b.Template(id)
	if codes == nil {
		return
	}
	if len(codes) != b.Len() || len(cells) != b.Len() {
		t.Fatalf("column %s: %d template codes, %d cells for %d rows", ColumnName(id), len(codes), len(cells), b.Len())
	}
	var want []string
	for i, c := range codes {
		if c == 0 {
			want = append(want, strings.Clone(cells[i]))
			continue
		}
		tm := tmpls[c-1]
		text := tm.Consts[0]
		for k, h := range tm.Holes {
			text += b.Col(h)[i] + tm.Consts[k+1]
		}
		want = append(want, text)
	}
	if got := b.Col(id); !slices.Equal(got, want) {
		t.Fatalf("column %s: reassembled %q, its templates say %q", ColumnName(id), got, want)
	}
}

// exactRows compares rows cell for cell, an explicit empty cell being a
// cell.
func exactRows(a, b []Row) bool {
	return slices.EqualFunc(a, b, func(x, y Row) bool {
		return x.Key == y.Key && x.WriteTS == y.WriteTS && slices.Equal(x.Cols(), y.Cols())
	})
}

// TestCodecGenerationsAgree holds the v9 codec to the v8 one on the
// hostile generator's segments: the v8 reader still returns what was
// written at the last commit with a v8 writer, and the same rows through
// the v9 writer give the same data region behind a new header and so the
// same Merkle leaves; the same meta, footer statistics (zone maps, key
// bounds, Bloom filters — with no false negative) and section bodies; the
// same rows through the Row adapter, the same batch under every projection
// and range cut — a column in template form reassembling as its templates
// say — and the same pruning decisions; from a file that differs by the
// section directory and the group section v9 leaves out where no block has
// a list.
func TestCodecGenerationsAgree(t *testing.T) {
	PoisonBatches.Store(true)
	defer PoisonBatches.Store(false)
	dir := t.TempDir()
	for i, hs := range hostileSegs() {
		t.Run(hs.name, func(t *testing.T) {
			v8, v9 := openV8(t, hs), writeV9(t, dir, hs, uint64(i+1))
			for _, seg := range []*Segment{v8, v9} {
				if err := seg.Verify(); err != nil {
					t.Fatal(err)
				}
			}

			// Rows.
			got8, got9 := scanRows(t, v8, Range{}, ScanConfig{}), scanRows(t, v9, Range{}, ScanConfig{})
			if !exactRows(got8, hs.rows) {
				t.Fatalf("the v8 fixture no longer reads back the generator's %d rows (%d read)", len(hs.rows), len(got8))
			}
			if !exactRows(got9, hs.rows) {
				t.Fatalf("v9 reads back %d rows that differ from the %d written", len(got9), len(hs.rows))
			}

			// Data region: the blocks byte for byte, so the leaves — but for
			// "shifting", whose blocks name columns by their index in a name
			// table in the writing process's dictionary order.
			if hs.name != "shifting" {
				data8, data9 := sectionData(t, v8), sectionData(t, v9)
				if string(data8[:len(segHeader)]) != segHeaderV8 || string(data9[:len(segHeader)]) != segHeader ||
					string(data8[len(segHeader):]) != string(data9[len(segHeader):]) {
					t.Fatalf("the v9 data region (%d bytes) is not the v8 one (%d) behind a new header", len(data9), len(data8))
				}
				if !reflect.DeepEqual(v8.meta.Leaves, v9.meta.Leaves) || v8.root != v9.root {
					t.Fatal("the Merkle leaves differ")
				}
			}

			// Footer: all but the data CRC, which covers the header, and the
			// leaves.
			m8, m9 := *v8.meta, *v9.meta
			if !reflect.DeepEqual(m8.Blocks, m9.Blocks) {
				for b := range m8.Blocks {
					if !reflect.DeepEqual(m8.Blocks[b], m9.Blocks[b]) {
						t.Fatalf("block %d statistics differ:\nv8 %+v\nv9 %+v", b, m8.Blocks[b], m9.Blocks[b])
					}
				}
				t.Fatalf("%d v8 block statistics, %d v9", len(m8.Blocks), len(m9.Blocks))
			}
			d8, t8 := codecOf(&m8)
			if d9, t9 := codecOf(&m9); !reflect.DeepEqual(d8, d9) || !slices.Equal(t8, t9) {
				t.Fatalf("codec sections differ:\nv8 %q %q\nv9 %q %q", d8, t8, d9, t9)
			}
			for _, m := range []*footerMeta{&m8, &m9} {
				m.DataCRC, m.Leaves, m.Blocks, m.Dicts, m.Templates, m.TmplCol = 0, nil, nil, nil, nil, 0
				// The name table is in the writing process's dictionary order.
				m.ColNames = slices.Sorted(slices.Values(m.ColNames))
			}
			if !reflect.DeepEqual(m8, m9) {
				t.Fatalf("footers differ:\nv8 %+v\nv9 %+v", m8, m9)
			}

			// Bloom answers: every cell written is in its block's filter.
			var names []uint32
			for _, r := range hs.rows {
				for _, c := range r.Cols() {
					if !slices.Contains(names, c.ID) {
						names = append(names, c.ID)
					}
					h1, h2 := BloomHash(ColumnName(c.ID), c.Value)
					for _, seg := range []*Segment{v8, v9} {
						for b, blk := range seg.meta.Blocks {
							if in := blk.MinKey <= r.Key && r.Key <= blk.MaxKey; in && c.Value != "" && !blk.MayContain(h1, h2) {
								t.Fatalf("%s block %d Bloom misses %s=%q", headerOf(t, seg), b, ColumnName(c.ID), c.Value)
							}
						}
					}
				}
			}

			// Batches: every single column, a pair, all, none and no
			// projection; whole, and cut inside the first and last blocks.
			projections := [][]uint32{nil, {}, names}
			for _, id := range names {
				projections = append(projections, []uint32{id})
			}
			if len(names) > 1 {
				projections = append(projections, []uint32{names[len(names)-1], names[0]})
			}
			ranges := []Range{{}}
			if n := len(hs.rows); n > 2 {
				ranges = append(ranges, Range{From: hs.rows[1].Key, To: hs.rows[n-1].Key},
					Range{From: hs.rows[n/2].Key + "\x00"}, Range{To: hs.rows[n/2].Key}, Range{From: hs.rows[n/2].Key, To: hs.rows[n/2].Key + "\x00"})
			}
			for _, rg := range ranges {
				if r8, r9 := scanRows(t, v8, rg, ScanConfig{}), scanRows(t, v9, rg, ScanConfig{}); !exactRows(r8, r9) {
					t.Fatalf("range %q: %d rows from v8, %d from v9", rg, len(r8), len(r9))
				}
				for _, project := range projections {
					cfg := ScanConfig{Project: project}
					if b8, b9 := batchImages(t, v8, rg, cfg), batchImages(t, v9, rg, cfg); !reflect.DeepEqual(b8, b9) {
						t.Fatalf("range %q projection %v: batches differ\nv8 %+v\nv9 %+v", rg, project, b8, b9)
					}
				}
			}

			// Pruning: same blocks read and skipped, same rows.
			for _, zone := range hs.zones {
				id := InternColumn(zone)
				for _, want := range []string{"", "0", "g1", "c1-0c1s1n1", "zzz"} {
					var s8, s9 PruneStats
					r8 := scanRows(t, v8, Range{}, ScanConfig{Pruner: zonePruner{id, want}, Stats: &s8})
					r9 := scanRows(t, v9, Range{}, ScanConfig{Pruner: zonePruner{id, want}, Stats: &s9})
					if !exactRows(r8, r9) || s8.BlocksRead.Load() != s9.BlocksRead.Load() || s8.BlocksPruned.Load() != s9.BlocksPruned.Load() {
						t.Fatalf("pruning %s=%q: v8 read %d pruned %d, v9 read %d pruned %d", zone, want,
							s8.BlocksRead.Load(), s8.BlocksPruned.Load(), s9.BlocksRead.Load(), s9.BlocksPruned.Load())
					}
				}
			}
			if hs.name == "templates" && len(v9.meta.Templates) == 0 {
				t.Fatal("no raw cell of the segment took a template")
			}
			if hs.name == "shifting" {
				return // its footers name columns in two dictionary orders
			}
			if !reflect.DeepEqual(v8.fold, v9.fold) {
				t.Fatalf("fold and group sections differ:\nv8 %+v\nv9 %+v", v8.fold, v9.fold)
			}

			// Footer bytes: the same meta but for the four of the data CRC,
			// and v8's sections are v9's bodies in tag order — fold, codec
			// and groups, all zero flags where v9 leaves the last out.
			meta8, rest8 := footerBytes(t, v8)
			meta9, rest9 := footerBytes(t, v9)
			var diff []int
			for k := 0; k < len(meta8) && len(meta8) == len(meta9); k++ {
				if meta8[k] != meta9[k] {
					diff = append(diff, k)
				}
			}
			if len(meta8) != len(meta9) || len(diff) > 0 && diff[len(diff)-1]-diff[0] >= 4 {
				t.Fatalf("meta of %d bytes in v8, %d in v9, differing at %v", len(meta8), len(meta9), diff)
			}
			d := NewStringDec(string(rest9))
			var tags []uint64
			var bodies []byte
			dirBytes := 0
			for d.Rest() > 0 {
				tag, err := d.Uvarint()
				body, err2 := d.String()
				if err != nil || err2 != nil {
					t.Fatal(err, err2)
				}
				tags, bodies = append(tags, tag), append(bodies, body...)
				dirBytes += uvarintLen(tag) + uvarintLen(uint64(len(body)))
			}
			omitted, want := 0, v8Sections
			if !slices.ContainsFunc(v9.fold, func(f blockFold) bool { return f.group != nil }) {
				omitted, want = len(v9.meta.Blocks), v8Sections[:2]
				bodies = append(bodies, make([]byte, omitted)...)
			}
			if !slices.Equal(tags, want) || !bytes.Equal(bodies, rest8) {
				t.Fatalf("v9 sections %v of %d body bytes; v8's %d bytes are not the same bodies", tags, len(bodies), len(rest8))
			}

			// Size: v9 adds the directory and takes away the group section it
			// leaves out.
			if f8, f9 := fileSize(t, v8.path), fileSize(t, v9.path); f9-f8 != int64(dirBytes-omitted) {
				t.Fatalf("the segment's file takes %d bytes in v9, %d in v8, with %d directory bytes and %d left out", f9, f8, dirBytes, omitted)
			}
		})
	}
}

// sectionData reads the data region of a resident segment.
func sectionData(t testing.TB, seg *Segment) []byte {
	t.Helper()
	b := make([]byte, seg.meta.DataLen)
	if _, err := seg.file.f.ReadAt(b, seg.base); err != nil {
		t.Fatal(err)
	}
	return b
}

// codecOf renders a footer's codec section by column name, not name-table
// index: the section dictionaries, and each template as its column, its
// constants and its holes' columns.
func codecOf(m *footerMeta) (map[string][]string, []string) {
	dicts := make(map[string][]string)
	for local, d := range m.Dicts {
		if len(d.vals) > 0 {
			dicts[m.ColNames[local]] = d.vals
		}
	}
	var tmpls []string
	for _, tm := range m.Templates {
		s := m.ColNames[m.TmplCol] + ": " + tm.Consts[0]
		for k, local := range tm.local {
			s += "<" + m.ColNames[local] + ">" + tm.Consts[k+1]
		}
		tmpls = append(tmpls, s)
	}
	return dicts, tmpls
}

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestV5WriterOrderNotReaders writes rows whose cells are in an order that
// is not this process's dictionary order — what a file from another
// process looks like to this one — and expects them back sorted.
func TestV5WriterOrderNotReaders(t *testing.T) {
	x, y, z := InternColumn("hz-ord-x"), InternColumn("hz-ord-y"), InternColumn("hz-ord-z")
	var rows, want []Row
	for i := 0; i < indexEvery+3; i++ {
		key := EncodeTS(int64(i))
		cols := []Col{{z, "z"}, {y, fmt.Sprint(i % 3)}, {x, fmt.Sprint(i)}}
		if i%4 == 0 {
			cols = cols[:2]
		}
		rows = append(rows, Row{Key: key, WriteTS: 1, cols: cols})
		want = append(want, MakeRow(key, 1, slices.Clone(cols)))
	}
	seg := writeV9(t, t.TempDir(), hostileSeg{name: "order", rows: rows}, 1)
	if names := seg.meta.ColNames[:3]; !slices.Equal(names, []string{"hz-ord-z", "hz-ord-y", "hz-ord-x"}) {
		t.Fatalf("name table %v: the test did not get the writer order it wanted", names)
	}
	if got := scanRows(t, seg, Range{}, ScanConfig{}); !exactRows(got, want) {
		t.Fatalf("rows come back with their cells out of dictionary order: %v", got[0].Cols())
	}
}

// TestTemplatesAcrossColumnOrders: a block whose columns first appear in
// an order that is not their name-table order still finds every template
// its cells fit — here every raw cell of the section is coded as one.
func TestTemplatesAcrossColumnOrders(t *testing.T) {
	a, b := InternColumn("hz-t-a"), InternColumn("hz-t-b")
	var rows []Row
	for i := 0; i < 3*indexEvery; i++ {
		v := fmt.Sprint(i % 7)
		cols := []Col{{templateColID, "x " + v + " y"}, {a, v}}
		if i%indexEvery == 0 && i > 0 { // the block's first row names b alone
			cols = []Col{{templateColID, "p " + v + " q"}, {b, v}}
		}
		rows = append(rows, MakeRow(EncodeTS(int64(i)), 1, cols))
	}
	seg := writeV9(t, t.TempDir(), hostileSeg{name: "orders", rows: rows}, 1)
	sc, err := ChainBatches(Range{}, false, []*Segment{seg}, []ScanConfig{{Project: []uint32{templateColID}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	n := 0
	for batch, ok := sc.Next(); ok; batch, ok = sc.Next() {
		codes, _, _ := batch.Template(templateColID)
		if len(codes) != batch.Len() || slices.Contains(codes, 0) {
			t.Fatalf("batch at row %d: template codes %v", n, codes)
		}
		n += batch.Len()
	}
	if err := sc.Err(); err != nil || n != len(rows) {
		t.Fatalf("%d of %d rows: %v", n, len(rows), err)
	}
}

// TestMixedGenerationCrashImages takes crash states at the four stages of
// a compaction round over a directory that mixes v8 sections — the
// hostile fixtures — and v9 sections written over half their keys: every
// kill -9 image reopens with every partition's last-write-wins rows,
// served by its v8 and v9 sections until the round's file has its final
// name and by one v9 section after; every power-loss and torn state
// reopens with those rows.
func TestMixedGenerationCrashImages(t *testing.T) {
	rec := fsystest.Install(t)
	dir := t.TempDir()
	want := make(map[string][]Row)
	var parts []FlushPart
	for i, hs := range hostileSegs() {
		if hs.name != "events" && hs.name != "templates" && hs.name != "sources257" {
			continue
		}
		data, err := os.ReadFile(v8Fixture(hs))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%020d%s", i+1, segFileExt)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var over []Row
		for _, r := range hs.rows[:len(hs.rows)/2] {
			over = append(over, MakeRow(r.Key, r.WriteTS+1<<20, append(slices.Clone(r.Cols()), C("hz-v9", "over"))))
		}
		want[hs.name] = append(slices.Clone(over), hs.rows[len(over):]...)
		parts = append(parts, FlushPart{"hostile", hs.name, over})
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.FlushRound(parts); err != nil {
		t.Fatal(err)
	}
	var n int
	images, power, err := roundImages(t, rec, func() (err error) { n, err = s.CompactOverflow(1); return err }, dir)
	if err != nil || n != len(want) || len(images) != 4 {
		t.Fatalf("compacted %d of %d partitions (%v) in %d stage images, want 4", n, len(want), err, len(images))
	}
	checkPower(t, power, func(dirs []string) (*Store, error) { return OpenStore(dirs[0]) }, func(name string, r *Store) {
		for pkey, rows := range want {
			var its []Iterator
			for _, seg := range r.Segments("hostile", pkey) {
				it, err := seg.Scan(Range{})
				if err != nil {
					t.Fatal(err)
				}
				its = append(its, it)
			}
			if merged := drain(t, MergeIters(its)); !exactRows(merged, rows) {
				t.Errorf("%s: %s reads %d rows that are not its %d last-write-wins rows", name, pkey, len(merged), len(rows))
			}
		}
	})
	for _, img := range images {
		r, err := OpenStore(img.dirs[0])
		if err != nil {
			t.Fatalf("%s: %v", img.stage, err)
		}
		headers := []string{segHeaderV8, segHeader}
		if img.stage == "renamed" || img.stage == "published" {
			headers = []string{segHeader}
		}
		for pkey, rows := range want {
			var got []string
			var its []Iterator
			for _, seg := range r.Segments("hostile", pkey) {
				got = append(got, headerOf(t, seg))
				it, err := seg.Scan(Range{})
				if err != nil {
					t.Fatal(err)
				}
				its = append(its, it)
			}
			if slices.Sort(got); !slices.Equal(got, headers) {
				t.Errorf("%s: %s served by codecs %q, want %q", img.stage, pkey, got, headers)
			}
			if merged := drain(t, MergeIters(its)); !exactRows(merged, rows) {
				t.Errorf("%s: %s reads %d rows that are not its %d last-write-wins rows", img.stage, pkey, len(merged), len(rows))
			}
		}
		r.Close()
	}
}
