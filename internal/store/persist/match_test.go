package persist

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// matchSourceID is the column the Match tests select on.
var matchSourceID = InternColumn(GroupColumn)

// eventRows makes n event-shaped rows, one a second from base: the
// source of row i is source(i) ("" for none), the key is time:source, the
// amount a count — but for the last row of every block where uncounted
// is set, which keeps group lists off — and the raw text a message a
// template covers, its bank a hole.
func eventRows(n int, base int64, uncounted bool, source func(i int) string) []Row {
	bank := InternColumn("attr.bank")
	var rows []Row
	for i := 0; i < n; i++ {
		src := source(i)
		b, amount := fmt.Sprint(i%5), fmt.Sprint(1+i%7/6)
		if uncounted && i%indexEvery == indexEvery-1 {
			amount = "many"
		}
		cols := []Col{
			{ID: countColID, Value: amount},
			{ID: templateColID, Value: fmt.Sprintf("machine check in bank %s, status 0x%x, reported by the node's processor", b, 1000+i%3)},
			{ID: bank, Value: b},
		}
		if src != "" {
			cols = append(cols, Col{ID: matchSourceID, Value: src})
		}
		rows = append(rows, MakeRow(EncodeTS(base+int64(i))+":"+src, int64(i+1), cols))
	}
	return rows
}

// matchSegment writes rows as one segment, its zone maps on zones (nil:
// the default hot set).
func matchSegment(t testing.TB, name string, zones []string, rows []Row) *Segment {
	t.Helper()
	w := NewWriter("event_by_time", name, 1)
	if zones != nil {
		if err := w.SetZoneColumns(zones); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := w.Finish(filepath.Join(t.TempDir(), name+segFileExt))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	return seg
}

// matchSegments are the ways a block can carry the source: codes into a
// section dictionary with a group list per block; plain values, and a
// block's own dictionary past what a section dictionary holds, without
// group lists, so that zone maps and Bloom filters prune; and long,
// sparse, front-coded values without zone maps, where the Bloom filter
// alone prunes.
func matchSegments(t testing.TB) map[string]*Segment {
	const n = 10 * indexEvery
	sources := []string{"c0-0c0s0n0", "c0-0c0s0n1", "c1-0c2s3n0", "c3-0c1s7n3", "lustre-oss-12"}
	return map[string]*Segment{
		"grouped": matchSegment(t, "grouped", nil, eventRows(n, 1000, false, func(i int) string {
			switch {
			case i%indexEvery == 7:
				return "busy" // in every block
			case i == 3*indexEvery+9:
				return "rare" // in one
			}
			return sources[i*7%len(sources)]
		})),
		"bloom": matchSegment(t, "bloom", nil, eventRows(n, 1000, true, func(i int) string {
			if i%97 == 5 {
				return "busy"
			}
			return fmt.Sprintf("node-%04d", i)
		})),
		"dict": matchSegment(t, "dict", nil, eventRows(2*n, 1000, true, func(i int) string {
			if i%indexEvery == 9 {
				return "busy"
			}
			return fmt.Sprintf("node-%04d", i/4)
		})),
		"front": matchSegment(t, "front", []string{}, eventRows(n, 1000, false, func(i int) string {
			switch {
			case i%3 == 0:
				return ""
			case i%indexEvery == 10:
				return "busy" + strings.Repeat(" component", 4)
			}
			return fmt.Sprintf("lustre-oss-%04d%s", i, strings.Repeat(" component", 4))
		})),
	}
}

// TestMatchSelectsAsFilter is the differential test of the selective
// batch scan: with a Match as its Select and Pruner, over ranges that cut
// blocks and every kind of projection, a chain yields exactly the rows of
// the row scan whose source is the value, cut to the projection, while the
// block buffer is poisoned between batches. The group list prunes exactly
// where a block has one, and a segment without lists prunes by its
// Bloom filters.
func TestMatchSelectsAsFilter(t *testing.T) {
	PoisonBatches.Store(true)
	defer PoisonBatches.Store(false)
	projects := [][]uint32{nil, {}, {matchSourceID}, {countColID, templateColID}, {templateColID, matchSourceID, InternColumn("attr.bank")}}
	ranges := []Range{{}, {From: EncodeTS(1100), To: EncodeTS(1500)}, {From: EncodeTS(1010) + ":c", To: EncodeTS(1533)}}
	for name, seg := range matchSegments(t) {
		groups := 0
		for i := range seg.meta.Blocks {
			if seg.fold[i].group != nil {
				groups++
			}
		}
		if want := map[bool]int{true: len(seg.meta.Blocks)}[name == "grouped"]; groups != want {
			t.Fatalf("%s: %d of %d blocks have a group list, want %d", name, groups, len(seg.meta.Blocks), want)
		}
		encs := map[byte]int{}
		local := slices.Index(seg.colIDs, matchSourceID)
		for _, blk := range rawBlocks(t, seg) {
			_, cols := blockDir(t, string(blk))
			for _, c := range cols {
				if c.local == uint64(local) {
					encs[c.tag&encMask]++
				}
			}
		}
		if want := map[string]byte{"grouped": encSection, "bloom": encPlain, "dict": encDict8, "front": encFront}[name]; encs[want] == 0 {
			t.Fatalf("%s: no block codes the source as %d: %v", name, want, encs)
		}
		// Absent values: past every zone map, and inside the ones of
		// node-0128 to node-0191's block, where the Bloom filter decides.
		for _, value := range []string{"busy", "rare", "busy" + strings.Repeat(" component", 4), "node-0130", "nowhere", "node-0130x"} {
			for _, rg := range ranges {
				for _, project := range projects {
					it, err := seg.Scan(rg)
					if err != nil {
						t.Fatal(err)
					}
					var want []Row
					for r, ok := it.Next(); ok; r, ok = it.Next() {
						if r.ColID(matchSourceID) != value {
							continue
						}
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
					it.Close()
					m := NewMatch(GroupColumn, value)
					stats := &PruneStats{}
					bs, err := ChainBatches(rg, false, []*Segment{seg}, []ScanConfig{{Pruner: m, Select: m, Stats: stats, Project: project}})
					if err != nil {
						t.Fatal(err)
					}
					if got := collectBatches(t, bs); !sameRows(got, want) {
						t.Fatalf("%s, %q, range %+v, projection %v: the selective scan yields %d rows, the filtered row scan %d",
							name, value, rg, project, len(got), len(want))
					}
					if absent := strings.HasPrefix(value, "no"); rg == (Range{}) && absent && stats.BlocksPruned.Load() < int64(len(seg.meta.Blocks))*4/5 {
						t.Fatalf("%s: %d of %d blocks pruned for %q, which no block holds", name, stats.BlocksPruned.Load(), len(seg.meta.Blocks), value)
					}
				}
			}
			// A group list's verdict is exact: a block is pruned if and only
			// if none of its rows holds the value.
			if name != "grouped" {
				continue
			}
			m := NewMatch(GroupColumn, value)
			for i := range seg.meta.Blocks {
				st := seg.meta.Blocks[i]
				st.fold = &seg.fold[i]
				holds := false
				it, err := seg.Scan(Range{From: st.MinKey, To: st.MaxKey + "\x00"})
				if err != nil {
					t.Fatal(err)
				}
				for r, ok := it.Next(); ok; r, ok = it.Next() {
					holds = holds || r.ColID(matchSourceID) == value
				}
				it.Close()
				if m.PruneBlock(&st) == holds {
					t.Fatalf("block %d: pruned %v for %q, which it holds: %v", i, !holds, value, holds)
				}
			}
		}
	}
}

// TestMatchFiltersRowBatches: the rows→Batch adapter, a merged or remote
// scan's, keeps the rows a Match selects and no other.
func TestMatchFiltersRowBatches(t *testing.T) {
	rows := eventRows(3*indexEvery+5, 1000, false, func(i int) string { return []string{"a", "b", "", "b"}[i%4] })
	var want []Row
	for _, r := range rows {
		if r.ColID(matchSourceID) == "b" {
			want = append(want, r)
		}
	}
	if got := collectBatches(t, BatchRows(sliceIter(rows), nil, NewMatch(GroupColumn, "b"))); !sameRows(got, want) {
		t.Fatalf("BatchRows under a Match yields %d rows, want %d", len(got), len(want))
	}
}
