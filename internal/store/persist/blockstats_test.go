package persist

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeStatsSegment writes rows where column "grp" cycles through g0..g3
// per block of 64 rows and "amount" ascends, so zone maps differ sharply
// between blocks.
func writeStatsSegment(t *testing.T, path string, nRows int) *Segment {
	t.Helper()
	w := NewWriter("events", "p", 1)
	if err := w.SetZoneColumns([]string{"grp", "amount"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRows; i++ {
		r := MakeRow(EncodeTS(int64(1000+i)), int64(i+1), []Col{
			C("grp", fmt.Sprintf("g%d", i/indexEvery%4)),
			C("amount", fmt.Sprintf("%d", i)),
			C("raw", "text value"),
		})
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := w.Finish(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	return seg
}

func TestBlockStatsRoundTrip(t *testing.T) {
	const nRows = 4*indexEvery + 17
	seg := writeStatsSegment(t, filepath.Join(t.TempDir(), "a.seg"), nRows)
	blocks := seg.meta.Blocks
	if len(blocks) != len(seg.meta.Index) {
		t.Fatalf("%d blocks for %d index entries", len(blocks), len(seg.meta.Index))
	}
	grpID := InternColumn("grp")
	amountID := InternColumn("amount")
	rows := 0
	for i, b := range blocks {
		rows += b.Rows
		if b.MinKey != seg.meta.Index[i].Key {
			t.Fatalf("block %d min key %q != index key %q", i, b.MinKey, seg.meta.Index[i].Key)
		}
		if b.MaxKey < b.MinKey {
			t.Fatalf("block %d key bounds inverted", i)
		}
		z := b.Zone(grpID)
		if z == nil {
			t.Fatalf("block %d missing grp zone", i)
		}
		want := fmt.Sprintf("g%d", i%4)
		if z.MinVal != want || z.MaxVal != want || z.Cells != b.Rows {
			t.Fatalf("block %d grp zone = %+v, want min=max=%q cells=%d", i, z, want, b.Rows)
		}
		if z.NumCells != 0 {
			t.Fatalf("block %d grp zone claims numeric cells", i)
		}
		az := b.Zone(amountID)
		if az == nil || az.NumCells != b.Rows {
			t.Fatalf("block %d amount zone = %+v", i, az)
		}
		if az.MinNum != float64(i*indexEvery) {
			t.Fatalf("block %d amount min %v, want %d", i, az.MinNum, i*indexEvery)
		}
		// Bloom: a value present in the block must be reported possible;
		// a value from a different block should (almost surely) miss.
		h1, h2 := BloomHash("grp", want)
		if !b.MayContain(h1, h2) {
			t.Fatalf("block %d bloom rejects its own grp value", i)
		}
		// Fold facts: every key carries a timestamp, and the amounts
		// i*64 .. i*64+Rows-1 are counts but for 0.
		if b.fold != nil {
			t.Fatalf("block %d: the segment's own statistics carry a fold record", i)
		}
		offered := b
		offered.fold = &seg.fold[i]
		lo, hi, ok := offered.TimeBounds()
		if !ok || lo != int64(1000+i*indexEvery) || hi != int64(1000+i*indexEvery+b.Rows-1) {
			t.Fatalf("block %d time bounds [%d, %d] %v", i, lo, hi, ok)
		}
		wantCells, wantSum := 0, int64(0)
		for v := i * indexEvery; v < i*indexEvery+b.Rows; v++ {
			if v > 0 {
				wantCells, wantSum = wantCells+1, wantSum+int64(v)
			}
		}
		if cells, sum := offered.Counts(amountID); cells != wantCells || sum != wantSum {
			t.Fatalf("block %d amount counts %d sum %d, want %d and %d", i, cells, sum, wantCells, wantSum)
		}
		if cells, sum := offered.Counts(grpID); cells != 0 || sum != 0 {
			t.Fatalf("block %d counts %d grp cells summing to %d", i, cells, sum)
		}
	}
	if len(seg.fold) != len(blocks) {
		t.Fatalf("%d fold records for %d blocks", len(seg.fold), len(blocks))
	}
	if rows != nRows {
		t.Fatalf("block row counts sum to %d, want %d", rows, nRows)
	}
	if b := blocks[0]; b.MinWriteTS != 1 || b.MaxWriteTS != int64(indexEvery) {
		t.Fatalf("block 0 write-ts bounds [%d,%d]", b.MinWriteTS, b.MaxWriteTS)
	}
	// The absent hot column case: a zone for a configured column never
	// written must report Cells == 0 — it is the strongest prune signal.
	seg2 := func() *Segment {
		w := NewWriter("events", "p", 2)
		if err := w.SetZoneColumns([]string{"ghost"}); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(MakeRow("k1", 1, []Col{C("raw", "x")})); err != nil {
			t.Fatal(err)
		}
		s, err := w.Finish(filepath.Join(t.TempDir(), "b.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}()
	defer seg2.Close()
	z := seg2.meta.Blocks[0].Zone(InternColumn("ghost"))
	if z == nil || z.Cells != 0 {
		t.Fatalf("absent hot column zone = %+v, want Cells=0", z)
	}
	if seg2.fold[0].timed {
		t.Fatal(`key "k1" carries no timestamp, yet the block is flagged timed`)
	}
}

// zonePruner prunes blocks whose "grp" zone excludes a wanted value —
// a minimal stand-in for the planner's compiled pruners.
type zonePruner struct {
	id   uint32
	want string
}

func (p zonePruner) PruneBlock(b *BlockStats) bool {
	z := b.Zone(p.id)
	if z == nil {
		return false
	}
	return z.Cells == 0 || p.want < z.MinVal || p.want > z.MaxVal
}

func TestScanPrunedSkipsAndStaysExact(t *testing.T) {
	const nRows = 8 * indexEvery
	seg := writeStatsSegment(t, filepath.Join(t.TempDir(), "a.seg"), nRows)
	grpID := InternColumn("grp")

	collect := func(it Iterator) []Row {
		t.Helper()
		var out []Row
		for {
			r, ok := it.Next()
			if !ok {
				break
			}
			out = append(out, r.Clone())
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		return out
	}

	var stats PruneStats
	it, err := seg.ScanPruned(Range{}, ScanConfig{Pruner: zonePruner{grpID, "g2"}, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	pruned := collect(it)

	// Oracle: full scan, filter client-side.
	full, err := seg.Scan(Range{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Row
	for _, r := range collect(full) {
		if r.ColID(grpID) == "g2" {
			want = append(want, r)
		}
	}
	// The pruned scan yields a superset filtered to g2 blocks; every g2
	// row must be present.
	got := 0
	for _, r := range pruned {
		if r.ColID(grpID) == "g2" {
			got++
		}
	}
	if got != len(want) {
		t.Fatalf("pruned scan kept %d g2 rows, want %d", got, len(want))
	}
	if stats.BlocksPruned.Load() != 6 || stats.BlocksRead.Load() != 2 {
		t.Fatalf("pruned=%d read=%d, want 6/2 (8 blocks, g2 in 2)",
			stats.BlocksPruned.Load(), stats.BlocksRead.Load())
	}

	// Shadowed blocks must not be pruned even when the pruner fires.
	var stats2 PruneStats
	it2, err := seg.ScanPruned(Range{}, ScanConfig{
		Pruner:  zonePruner{grpID, "g2"},
		Shadows: []KeyRange{{Min: "", Max: "\xff"}}, // everything shadowed
		Stats:   &stats2,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := collect(it2)
	if len(all) != nRows || stats2.BlocksPruned.Load() != 0 {
		t.Fatalf("shadowed scan: %d rows, %d pruned", len(all), stats2.BlocksPruned.Load())
	}
}

func TestParseNum(t *testing.T) {
	cases := []struct {
		in  string
		f   float64
		ok  bool
		why string
	}{
		{"0", 0, true, ""}, {"42", 42, true, ""}, {"-7", -7, true, ""},
		{"+3", 3, true, ""}, {"3.5", 3.5, true, ""}, {"-0.25", -0.25, true, ""},
		{"007", 7, true, "leading zeros"},
		{"", 0, false, "empty"}, {"-", 0, false, "bare sign"},
		{".5", 0.5, true, "bare fraction"},
		{"1e3", 0, false, "exponent out of scope"},
		{"12a", 0, false, "trailing garbage"}, {" 1", 0, false, "space"},
		{"1.", 0, false, "trailing dot"},
	}
	for _, c := range cases {
		f, ok := ParseNum(c.in)
		if ok != c.ok || (ok && f != c.f) {
			t.Errorf("ParseNum(%q) = %v,%v want %v,%v (%s)", c.in, f, ok, c.f, c.ok, c.why)
		}
	}
}

// TestBloomSizedByDistinctCells holds the block Bloom filters, sized at
// bloomBitsPerCell bits per distinct cell, to what pruning needs of them on
// the hostile segments: every written (column, value) cell probes
// MayContain in its block — no false negative — and of at least 10 000
// probes of values never written, at most 2 % come back true.
func TestBloomSizedByDistinctCells(t *testing.T) {
	dir := t.TempDir()
	probes, hits := 0, 0
	for i, hs := range hostileSegs() {
		seg := writeV9(t, dir, hs, uint64(i+1))
		blocks := seg.meta.Blocks
		b := 0
		for _, r := range hs.rows {
			for r.Key > blocks[b].MaxKey {
				b++
			}
			for _, c := range r.Cols() {
				if h1, h2 := BloomHash(ColumnName(c.ID), c.Value); c.Value != "" && !blocks[b].MayContain(h1, h2) {
					t.Fatalf("%s block %d: the filter misses %s=%q", hs.name, b, ColumnName(c.ID), c.Value)
				}
			}
		}
		for b := range blocks {
			for _, name := range seg.meta.ColNames {
				for k := 0; k < 64; k++ {
					probes++
					if blocks[b].MayContain(BloomHash(name, fmt.Sprintf("never written %d", k))) {
						hits++
					}
				}
			}
		}
	}
	t.Logf("%d of %d probes of values never written pass the filters", hits, probes)
	if probes < 10000 || hits*50 > probes {
		t.Fatalf("%d of %d probes of values never written pass the filters, want at most 2 %% of at least 10 000", hits, probes)
	}
}

// groupRows are the rows of TestGroupListsMatchRows, one block of each
// shape it lists.
func groupRows() []Row {
	var rows []Row
	add := func(src, amt string) {
		var cols []Col
		if src != "" {
			cols = append(cols, C("source", src))
		}
		if amt != absentCell {
			cols = append(cols, C("amount", amt))
		}
		rows = append(rows, MakeRow(EncodeTS(int64(4102732800+len(rows)))+":k", 1, cols))
	}
	for i := 0; i < indexEvery; i++ { // repeated sources, counts of 1 to 3
		add(fmt.Sprintf("c0-0c0s%dn%d", i%7, i%3), fmt.Sprint(1+i%5/3*(i%3)))
	}
	for per := 2; per <= 5; per++ { // sources of per rows
		for i := 0; i < indexEvery; i++ {
			add(fmt.Sprintf("c1-0c0s%dn%d", i/per/4, i/per%4), "1")
		}
	}
	for i := 0; i < indexEvery; i++ { // sources left out
		src := fmt.Sprintf("c0-0c0s%dn0", i%9)
		if i%4 == 0 {
			src = ""
		}
		add(src, "1")
	}
	for i := 0; i < indexEvery; i++ { // one source
		add("c0-0c0s0n0", "2")
	}
	for i := 0; i < indexEvery; i++ { // amounts that are not counts
		amt := "1"
		switch i {
		case 3:
			amt = "x"
		case 9:
			amt = absentCell
		}
		add(fmt.Sprintf("c0-0c0s%dn1", i%5), amt)
	}
	for i := 0; i < 5*indexEvery; i++ { // past the section dictionary
		add(fmt.Sprintf("c1-0c%ds%dn%d", i/32%8, i/4%8, i%4), "1")
	}
	return rows
}

// TestGroupListsMatchRows holds each block's group list to the block's
// rows — per source, the rows that hold it and the sum of their counts —
// as the writer keeps it and as its file reads back. A block gets a list
// where every amount is a count, the amount column is hot and the block
// codes its sources into the section dictionary, unless every row holds
// one source, which its zone map tells; no other block gets one. The
// blocks: repeated sources with counts 1, 2 and 3; sources of 2, 3, 4 and
// 5 rows counting 1 each; a source left out of some rows; one source
// throughout; an amount that is not a count; more sources than a section
// dictionary holds; and a segment whose hot set lacks the amount column.
func TestGroupListsMatchRows(t *testing.T) {
	source, amount := InternColumn("source"), InternColumn("amount")
	rows := groupRows()
	dir := t.TempDir()
	for _, zones := range [][]string{{"source", "amount"}, {"source"}} {
		written := writeV9(t, dir, hostileSeg{"groups-" + strings.Join(zones, "-"), zones, rows}, 1)
		read, err := OpenSegment(written.path)
		if err != nil {
			t.Fatal(err)
		}
		defer read.Close()
		for _, seg := range []*Segment{written, read} {
			listed := 0
			for i := range seg.meta.Blocks {
				b := seg.meta.Blocks[i]
				b.fold = &seg.fold[i]
				// The block's rows and whether it codes sources into the section
				// dictionary.
				var blockRows []Row
				sc, err := ChainBatches(Range{From: b.MinKey, To: b.MaxKey + "\x00"}, false, []*Segment{seg}, []ScanConfig{{Project: []uint32{source, amount}}})
				if err != nil {
					t.Fatal(err)
				}
				sectioned := false
				for batch, ok := sc.Next(); ok; batch, ok = sc.Next() {
					_, _, sd := batch.dictOf(source)
					sectioned = sd != nil
					for j := 0; j < batch.Len(); j++ {
						blockRows = append(blockRows, MakeRow(batch.Keys()[j], 0, []Col{{source, strings.Clone(batch.Col(source)[j])}, {amount, strings.Clone(batch.Col(amount)[j])}}))
					}
				}
				sc.Close()
				type group struct {
					rows int
					sum  int64
				}
				want, counts := map[string]group{}, true
				for _, r := range blockRows {
					n, ok := PosInt(r.ColID(amount))
					counts = counts && ok
					g := want[r.ColID(source)]
					want[r.ColID(source)] = group{g.rows + 1, g.sum + int64(n)}
				}
				_, one := b.Only(source)
				it, dict, ok := b.Groups(source)
				if wantList := counts && len(zones) == 2 && sectioned && !one; ok != wantList {
					t.Fatalf("%v block %d: list %v, want %v (counts %v, section %v, one source %v)", zones, i, ok, wantList, counts, sectioned, one)
				}
				if !ok {
					continue
				}
				listed++
				got := map[string]group{}
				for g, more := it.Next(); more; g, more = it.Next() {
					got[dict[g.Code]] = group{g.Rows, g.Sum}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("block %d: groups %v, rows say %v", i, got, want)
				}
			}
			if (listed >= 6) != (len(zones) == 2) {
				t.Fatalf("%v: %d blocks listed", zones, listed)
			}
		}
	}
}

// absentCell, as an amount, leaves the amount cell out of the row.
const absentCell = "\x00"

// TestTaker: a Taker takes a block inside its range, every cell of
// CountColumn a count, that its take func accepts, and tallies exactly
// the blocks it took; it asks the take func of no other block.
func TestTaker(t *testing.T) {
	block := func(min, max string, rows, counts int) *BlockStats {
		return &BlockStats{MinKey: min, MaxKey: max, Rows: rows,
			fold: &blockFold{counts: []colCounts{{id: countColID, cells: counts, sum: 40}}}}
	}
	rg := Range{From: "b", To: "y"}
	for _, c := range []struct {
		name   string
		rg     Range
		b      *BlockStats
		refuse bool // the take func refuses
		asked  bool // the take func is asked
		taken  bool
	}{
		{"inside", rg, block("b", "x", 8, 8), false, true, true},
		{"straddles From", rg, block("a", "x", 8, 8), false, false, false},
		{"straddles To", rg, block("b", "y", 8, 8), false, false, false},
		{"open To", Range{From: "b"}, block("b", "zz", 8, 8), false, true, true},
		{"open From", Range{To: "y"}, block("", "x", 8, 8), false, true, true},
		{"counts not rows", rg, block("c", "d", 8, 7), false, false, false},
		{"no counts", rg, &BlockStats{MinKey: "c", MaxKey: "d", Rows: 8}, false, false, false},
		{"take refuses", rg, block("c", "d", 8, 8), true, true, false},
	} {
		asked := false
		tk := &Taker{Range: c.rg, Take: func(b *BlockStats, sum int64) bool {
			if asked = true; b != c.b || sum != 40 {
				t.Errorf("%s: take asked of %p with sum %d", c.name, b, sum)
			}
			return !c.refuse
		}}
		if got := tk.PruneBlock(c.b); got != c.taken || asked != c.asked {
			t.Errorf("%s: took %v, take func asked %v; want %v, %v", c.name, got, asked, c.taken, c.asked)
		}
		rows, blocks := 0, 0
		if c.taken {
			rows, blocks = 8, 1
		}
		if tk.Rows != rows || tk.Blocks != blocks {
			t.Errorf("%s: tallied %d rows, %d blocks; want %d, %d", c.name, tk.Rows, tk.Blocks, rows, blocks)
		}
	}
}
