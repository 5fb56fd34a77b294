package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// This process interns the ordered columns of the hostile generator in the
// reverse of the order the fixtures' writer did, so that the name tables of
// testdata/v5 list columns in an order that is not this reader's ID order.
var _ = [...]uint32{InternColumn("hz-ord-x"), InternColumn("hz-ord-y"), InternColumn("hz-ord-z")}

// writeV6 writes hs through the (only) writer, as seq.
func writeV6(t testing.TB, dir string, hs hostileSeg, seq uint64) *Segment {
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

// writeV5 is writeV6 under the name the allocation guards were written
// against (alloc_guard_test.go): what they measure is whatever the one
// writer writes.
func writeV5(t testing.TB, dir string, hs hostileSeg, seq uint64) *Segment {
	t.Helper()
	return writeV6(t, dir, hs, seq)
}

// openV5 opens the checked-in v5 rendering of hs.
func openV5(t testing.TB, hs hostileSeg) *Segment {
	t.Helper()
	seg, err := OpenSegment(filepath.Join("testdata", "v5", hs.name+segFileExt))
	if err != nil {
		t.Fatal(err)
	}
	if seg.version != segVersionV5 {
		t.Fatalf("fixture %s is codec v%d", hs.name, seg.version)
	}
	t.Cleanup(func() { seg.Close() })
	return seg
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
	sc, err := ChainBatches(rg, []*Segment{seg}, []ScanConfig{cfg})
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

// TestCodecGenerationsAgree holds the v6 codec to the v5 one on the
// hostile generator's segments: the v5 reader still returns what was
// written at the last commit with a v5 writer, and the same rows through
// the v6 writer give the same footer statistics (zone maps, Bloom bits,
// key bounds), the same rows through the Row adapter, the same batch under
// every projection and range cut — a column in template form reassembling
// as its templates say — and the same pruning decisions.
func TestCodecGenerationsAgree(t *testing.T) {
	PoisonBatches.Store(true)
	defer PoisonBatches.Store(false)
	dir := t.TempDir()
	for i, hs := range hostileSegs() {
		t.Run(hs.name, func(t *testing.T) {
			v5, v6 := openV5(t, hs), writeV6(t, dir, hs, uint64(i+1))
			if err := v6.Verify(); err != nil {
				t.Fatal(err)
			}

			// Rows.
			got5, got6 := scanRows(t, v5, Range{}, ScanConfig{}), scanRows(t, v6, Range{}, ScanConfig{})
			if !exactRows(got5, hs.rows) {
				t.Fatalf("the v5 fixture no longer reads back the generator's %d rows (%d read)", len(hs.rows), len(got5))
			}
			if !exactRows(got6, hs.rows) {
				t.Fatalf("v6 reads back %d rows that differ from the %d written", len(got6), len(hs.rows))
			}

			// Footer: all but what depends on the blocks' bytes.
			m5, m6 := *v5.meta, *v6.meta
			if !reflect.DeepEqual(m5.Blocks, m6.Blocks) {
				for b := range m5.Blocks {
					if !reflect.DeepEqual(m5.Blocks[b], m6.Blocks[b]) {
						t.Fatalf("block %d statistics differ:\nv5 %+v\nv6 %+v", b, m5.Blocks[b], m6.Blocks[b])
					}
				}
				t.Fatalf("%d v5 block statistics, %d v6", len(m5.Blocks), len(m6.Blocks))
			}
			for b := range m5.Index {
				if m5.Index[b].Key != m6.Index[b].Key {
					t.Fatalf("block %d starts at %q in v5, %q in v6", b, m5.Index[b].Key, m6.Index[b].Key)
				}
			}
			for _, m := range []*footerMeta{&m5, &m6} {
				m.DataLen, m.DataCRC, m.Index, m.Leaves, m.Blocks = 0, 0, nil, nil, nil
				// The codec section is v6's alone.
				m.Dicts, m.Templates, m.TmplCol = nil, nil, 0
				// The name table is in the writing process's dictionary order.
				m.ColNames = slices.Sorted(slices.Values(m.ColNames))
			}
			if !reflect.DeepEqual(m5, m6) {
				t.Fatalf("footers differ:\nv5 %+v\nv6 %+v", m5, m6)
			}

			// Bloom answers: every cell written, and probes that were not.
			var names []uint32
			for _, r := range hs.rows {
				for _, c := range r.Cols() {
					if !slices.Contains(names, c.ID) {
						names = append(names, c.ID)
					}
					h1, h2 := BloomHash(ColumnName(c.ID), c.Value)
					for b := range v6.meta.Blocks {
						in := v6.meta.Blocks[b].MinKey <= r.Key && r.Key <= v6.meta.Blocks[b].MaxKey
						if may := v6.meta.Blocks[b].MayContain(h1, h2); may != v5.meta.Blocks[b].MayContain(h1, h2) || (in && c.Value != "" && !may) {
							t.Fatalf("block %d Bloom on %s=%q: v6 says %v", b, ColumnName(c.ID), c.Value, may)
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
				if r5, r6 := scanRows(t, v5, rg, ScanConfig{}), scanRows(t, v6, rg, ScanConfig{}); !exactRows(r5, r6) {
					t.Fatalf("range %q: %d rows from v5, %d from v6", rg, len(r5), len(r6))
				}
				for _, project := range projections {
					cfg := ScanConfig{Project: project}
					if b5, b6 := batchImages(t, v5, rg, cfg), batchImages(t, v6, rg, cfg); !reflect.DeepEqual(b5, b6) {
						t.Fatalf("range %q projection %v: batches differ\nv5 %+v\nv6 %+v", rg, project, b5, b6)
					}
				}
			}

			// Pruning: same blocks read and skipped, same rows.
			for _, zone := range hs.zones {
				id := InternColumn(zone)
				for _, want := range []string{"", "0", "g1", "c1-0c1s1n1", "zzz"} {
					var s5, s6 PruneStats
					r5 := scanRows(t, v5, Range{}, ScanConfig{Pruner: zonePruner{id, want}, Stats: &s5})
					r6 := scanRows(t, v6, Range{}, ScanConfig{Pruner: zonePruner{id, want}, Stats: &s6})
					if !exactRows(r5, r6) || s5.BlocksRead.Load() != s6.BlocksRead.Load() || s5.BlocksPruned.Load() != s6.BlocksPruned.Load() {
						t.Fatalf("pruning %s=%q: v5 read %d pruned %d, v6 read %d pruned %d", zone, want,
							s5.BlocksRead.Load(), s5.BlocksPruned.Load(), s6.BlocksRead.Load(), s6.BlocksPruned.Load())
					}
				}
			}

			switch hs.name {
			case "events", "sources256", "sources257":
				if v6.Size() >= v5.Size() {
					t.Fatalf("the segment takes %d bytes in v6, %d in v5", v6.Size(), v5.Size())
				}
			case "templates":
				if len(v6.meta.Templates) == 0 {
					t.Fatal("no raw cell of the segment took a template")
				}
			}
		})
	}
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
	seg := writeV6(t, t.TempDir(), hostileSeg{name: "order", rows: rows}, 1)
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
	seg := writeV6(t, t.TempDir(), hostileSeg{name: "orders", rows: rows}, 1)
	sc, err := ChainBatches(Range{}, []*Segment{seg}, []ScanConfig{{Project: []uint32{templateColID}}})
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

// TestMixedGenerationCrashImages cuts crash images at the four stages of a
// compaction round over a directory that mixes v5 sections — the hostile
// fixtures — and v6 sections written over half their keys: every image
// reopens with every partition's last-write-wins rows, served by its v5
// and v6 sections until the round's file has its final name and by one
// v6 section after.
func TestMixedGenerationCrashImages(t *testing.T) {
	dir := t.TempDir()
	want := make(map[string][]Row)
	var parts []FlushPart
	for i, hs := range hostileSegs() {
		if hs.name != "events" && hs.name != "templates" && hs.name != "sources257" {
			continue
		}
		data, err := os.ReadFile(filepath.Join("testdata", "v5", hs.name+segFileExt))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%020d%s", i+1, segFileExt)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var over []Row
		for _, r := range hs.rows[:len(hs.rows)/2] {
			over = append(over, MakeRow(r.Key, r.WriteTS+1<<20, append(slices.Clone(r.Cols()), C("hz-v6", "over"))))
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
	type image struct{ stage, dir string }
	var images []image
	RoundCrashHook = func(stage string, _ []string) {
		img := image{stage, t.TempDir()}
		copyTreeT(t, dir, img.dir)
		images = append(images, img)
	}
	n, err := s.CompactOverflow(1)
	RoundCrashHook = nil
	if err != nil || n != len(want) || len(images) != 4 {
		t.Fatalf("compacted %d of %d partitions (%v) in %d stage images, want 4", n, len(want), err, len(images))
	}
	for _, img := range images {
		r, err := OpenStore(img.dir)
		if err != nil {
			t.Fatalf("%s: %v", img.stage, err)
		}
		versions := []int{segVersionV5, SegVersion}
		if img.stage == "renamed" || img.stage == "published" {
			versions = []int{SegVersion}
		}
		for pkey, rows := range want {
			var got []int
			var its []Iterator
			for _, seg := range r.Segments("hostile", pkey) {
				got = append(got, seg.version)
				it, err := seg.Scan(Range{})
				if err != nil {
					t.Fatal(err)
				}
				its = append(its, it)
			}
			if slices.Sort(got); !slices.Equal(got, versions) {
				t.Errorf("%s: %s served by codecs %v, want %v", img.stage, pkey, got, versions)
			}
			if merged := drain(t, MergeIters(its)); !exactRows(merged, rows) {
				t.Errorf("%s: %s reads %d rows that are not its %d last-write-wins rows", img.stage, pkey, len(merged), len(rows))
			}
		}
		r.Close()
	}
}
