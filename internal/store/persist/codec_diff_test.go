package persist

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// This process interns the ordered columns of the hostile generator in the
// reverse of the order the fixtures' writer did, so that the name tables of
// testdata/v4 list columns in an order that is not this reader's ID order.
var _ = [...]uint32{InternColumn("hz-ord-x"), InternColumn("hz-ord-y"), InternColumn("hz-ord-z")}

// writeV5 writes hs through the (only) writer, as seq.
func writeV5(t testing.TB, dir string, hs hostileSeg, seq uint64) *Segment {
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

// openV4 opens the checked-in v4 rendering of hs.
func openV4(t testing.TB, hs hostileSeg) *Segment {
	t.Helper()
	seg, err := OpenSegment(filepath.Join("testdata", "v4", hs.name+segFileExt))
	if err != nil {
		t.Fatal(err)
	}
	if seg.version != segVersionV4 {
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

func imageOf(t testing.TB, b *Batch, project []uint32, generation int) batchImage {
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
		if generation != SegVersion || len(codes) != len(vec) {
			t.Fatalf("column %s of a v%d batch: dictionary with %d codes for %d rows", ColumnName(id), generation, len(codes), len(vec))
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
		out = append(out, imageOf(t, b, cfg.Project, seg.version))
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

// exactRows compares rows cell for cell, an explicit empty cell being a
// cell.
func exactRows(a, b []Row) bool {
	return slices.EqualFunc(a, b, func(x, y Row) bool {
		return x.Key == y.Key && x.WriteTS == y.WriteTS && slices.Equal(x.Cols(), y.Cols())
	})
}

// TestCodecGenerationsAgree holds the v5 codec to the v4 one on the
// hostile generator's segments: the v4 reader still returns what was
// written at the parent commit, and the same rows through the v5 writer
// give the same footer statistics (zone maps, Bloom bits, key bounds), the
// same rows through the Row adapter, the same batch under every projection
// and range cut, and the same pruning decisions.
func TestCodecGenerationsAgree(t *testing.T) {
	PoisonBatches.Store(true)
	defer PoisonBatches.Store(false)
	dir := t.TempDir()
	for i, hs := range hostileSegs() {
		t.Run(hs.name, func(t *testing.T) {
			v4, v5 := openV4(t, hs), writeV5(t, dir, hs, uint64(i+1))
			if err := v5.Verify(); err != nil {
				t.Fatal(err)
			}

			// Rows.
			got4, got5 := scanRows(t, v4, Range{}, ScanConfig{}), scanRows(t, v5, Range{}, ScanConfig{})
			if !exactRows(got4, hs.rows) {
				t.Fatalf("the v4 fixture no longer reads back the generator's %d rows (%d read)", len(hs.rows), len(got4))
			}
			if !exactRows(got5, hs.rows) {
				t.Fatalf("v5 reads back %d rows that differ from the %d written", len(got5), len(hs.rows))
			}

			// Footer: all but what depends on the blocks' bytes.
			m4, m5 := *v4.meta, *v5.meta
			if !reflect.DeepEqual(m4.Blocks, m5.Blocks) {
				for b := range m4.Blocks {
					if !reflect.DeepEqual(m4.Blocks[b], m5.Blocks[b]) {
						t.Fatalf("block %d statistics differ:\nv4 %+v\nv5 %+v", b, m4.Blocks[b], m5.Blocks[b])
					}
				}
				t.Fatalf("%d v4 block statistics, %d v5", len(m4.Blocks), len(m5.Blocks))
			}
			for b := range m4.Index {
				if m4.Index[b].Key != m5.Index[b].Key {
					t.Fatalf("block %d starts at %q in v4, %q in v5", b, m4.Index[b].Key, m5.Index[b].Key)
				}
			}
			for _, m := range []*footerMeta{&m4, &m5} {
				m.DataLen, m.DataCRC, m.Index, m.Leaves, m.Blocks = 0, 0, nil, nil, nil
				// The name table is in the writing process's dictionary order.
				m.ColNames = slices.Sorted(slices.Values(m.ColNames))
			}
			if _, err := DecodeTS(m5.MaxKey); err != nil {
				// v4 kept the last timestamp any key carried; v5 reads the
				// bounds off MinKey and MaxKey, and these carry none.
				if m5.MinTS != 0 || m5.MaxTS != 0 {
					t.Fatalf("time bounds [%d, %d] off keys without a timestamp", m5.MinTS, m5.MaxTS)
				}
				m4.MinTS, m4.MaxTS = 0, 0
			}
			if !reflect.DeepEqual(m4, m5) {
				t.Fatalf("footers differ:\nv4 %+v\nv5 %+v", m4, m5)
			}

			// Bloom answers: every cell written, and probes that were not.
			var names []uint32
			for _, r := range hs.rows {
				for _, c := range r.Cols() {
					if !slices.Contains(names, c.ID) {
						names = append(names, c.ID)
					}
					h1, h2 := BloomHash(ColumnName(c.ID), c.Value)
					for b := range v5.meta.Blocks {
						in := v5.meta.Blocks[b].MinKey <= r.Key && r.Key <= v5.meta.Blocks[b].MaxKey
						if may := v5.meta.Blocks[b].MayContain(h1, h2); may != v4.meta.Blocks[b].MayContain(h1, h2) || (in && c.Value != "" && !may) {
							t.Fatalf("block %d Bloom on %s=%q: v5 says %v", b, ColumnName(c.ID), c.Value, may)
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
				if r4, r5 := scanRows(t, v4, rg, ScanConfig{}), scanRows(t, v5, rg, ScanConfig{}); !exactRows(r4, r5) {
					t.Fatalf("range %q: %d rows from v4, %d from v5", rg, len(r4), len(r5))
				}
				for _, project := range projections {
					cfg := ScanConfig{Project: project}
					if b4, b5 := batchImages(t, v4, rg, cfg), batchImages(t, v5, rg, cfg); !reflect.DeepEqual(b4, b5) {
						t.Fatalf("range %q projection %v: batches differ\nv4 %+v\nv5 %+v", rg, project, b4, b5)
					}
				}
			}

			// Pruning: same blocks read and skipped, same rows.
			for _, zone := range hs.zones {
				id := InternColumn(zone)
				for _, want := range []string{"", "0", "g1", "c1-0c1s1n1", "zzz"} {
					var s4, s5 PruneStats
					r4 := scanRows(t, v4, Range{}, ScanConfig{Pruner: zonePruner{id, want}, Stats: &s4})
					r5 := scanRows(t, v5, Range{}, ScanConfig{Pruner: zonePruner{id, want}, Stats: &s5})
					if !exactRows(r4, r5) || s4.BlocksRead.Load() != s5.BlocksRead.Load() || s4.BlocksPruned.Load() != s5.BlocksPruned.Load() {
						t.Fatalf("pruning %s=%q: v4 read %d pruned %d, v5 read %d pruned %d", zone, want,
							s4.BlocksRead.Load(), s4.BlocksPruned.Load(), s5.BlocksRead.Load(), s5.BlocksPruned.Load())
					}
				}
			}

			if hs.name == "events" && v5.Size()*4 > v4.Size()*3 {
				t.Fatalf("event-shaped segment takes %d bytes in v5, %d in v4: less than a quarter saved", v5.Size(), v4.Size())
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
	seg := writeV5(t, t.TempDir(), hostileSeg{name: "order", rows: rows}, 1)
	if names := seg.meta.ColNames[:3]; !slices.Equal(names, []string{"hz-ord-z", "hz-ord-y", "hz-ord-x"}) {
		t.Fatalf("name table %v: the test did not get the writer order it wanted", names)
	}
	if got := scanRows(t, seg, Range{}, ScanConfig{}); !exactRows(got, want) {
		t.Fatalf("rows come back with their cells out of dictionary order: %v", got[0].Cols())
	}
}
