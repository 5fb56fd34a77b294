//go:build !race

package persist

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
)

// Allocation regression guard for the segment read hot path. The block
// codec budgets ~3 allocations per 64-row block (block string, column
// arena, amortized growth) plus a constant per scan; a future change that
// reintroduces per-row maps or per-row name strings blows this budget
// immediately. Excluded under -race (the detector adds bookkeeping
// allocations).
func TestSegmentScanAllocBudget(t *testing.T) {
	const nRows = 2048
	rows := benchSegmentRows(nRows)
	w := NewWriter("events", "p", 1)
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := w.Finish(filepath.Join(t.TempDir(), "a.seg"))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	scan := func() {
		it, err := seg.Scan(Range{})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			_, ok := it.Next()
			if !ok {
				break
			}
			n++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		if n != nRows {
			t.Fatalf("scanned %d rows, want %d", n, nRows)
		}
	}
	scan() // warm the buffer pools
	avg := testing.AllocsPerRun(20, scan)
	// 2048 rows / 64-row blocks = 32 blocks; ~4 allocs per block + slack
	// for iterator setup. Well under 0.1 allocs/row.
	const budget = 180
	if avg > budget {
		t.Fatalf("segment scan of %d rows allocates %.0f objects/run, budget %d — "+
			"did a per-row allocation sneak back into the decode path?", nRows, avg, budget)
	}
}

// TestFlushRoundAllocBudget pins what a flush round may allocate: a
// constant per round (the worker pool, the round file, its index, the
// writer and segment lists, one scratch set per worker) plus a small
// constant per part (writer, footer metadata, segment). The image buffer
// is borrowed from scratchPool and every part lands in the round's one
// file, so a round of 256 parts must not allocate 256 buffers or open 256
// files. Measured: 29 objects and 2.9 KiB per part; with a file per
// segment, 52 objects and 4.9 KiB.
func TestFlushRoundAllocBudget(t *testing.T) {
	const (
		parts         = 256
		perRound      = 256
		perPart       = 40
		perPartBytes  = 8 << 10
		smallPartRows = 8
	)
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rows := benchSegmentRows(smallPartRows)
	round := func(n int) (objects, bytes float64) {
		ps := smallParts(n, rows)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := s.FlushRound(ps); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	round(parts) // warm the scratch pool and the dictionary
	o1, b1 := round(parts)
	o2, b2 := round(2 * parts)
	t.Logf("flush round of %d parts: %.0f objects, %.0f bytes; of %d: %.0f objects, %.0f bytes", parts, o1, b1, 2*parts, o2, b2)
	if o1 > perRound+perPart*parts || o2 > perRound+perPart*2*parts {
		t.Fatalf("flush rounds of %d and %d parts allocate %.0f and %.0f objects, budget %d per round plus %d per part",
			parts, 2*parts, o1, o2, perRound, perPart)
	}
	if b2-b1 > perPartBytes*parts {
		t.Fatalf("%d more parts cost a flush round %.0f more bytes, budget %d per part: "+
			"is every segment writer buying its own image buffer again?", parts, b2-b1, perPartBytes)
	}
}

// TestBlockDecodeAllocBudget pins the steady state of a projected batch
// scan of v9 segments: nothing allocated per block — the block lands in
// the pooled buffer, keys and long values in the pooled arena, values and
// dictionaries in the batch's own vectors — and, chained, nothing per
// segment beyond what acquiring it takes; whether a consumer builds the
// keys or leaves them front-coded.
func TestBlockDecodeAllocBudget(t *testing.T) {
	hs := hostileSegs()[0]
	dir := t.TempDir()
	var segs []*Segment
	var cfgs []ScanConfig
	project := []uint32{InternColumn("hz-source"), InternColumn("hz-amount"), InternColumn("hz-raw")}
	for i := 0; i < 40; i++ { // the same rows over and over: a chain scan checks no keys across segments
		hs.name = fmt.Sprintf("chain%02d", i)
		segs, cfgs = append(segs, writeV9(t, dir, hs, uint64(i+1))), append(cfgs, ScanConfig{Project: project})
	}
	for _, keys := range []bool{false, true} {
		t.Run(fmt.Sprintf("keys=%v", keys), func(t *testing.T) {
			sc, err := ChainBatches(Range{}, false, segs, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			blocks := len(segs) * len(segs[0].meta.Index)
			next := func() {
				b, ok := sc.Next()
				if !ok || b.Len() == 0 {
					t.Fatalf("chain ended early: %v", sc.Err())
				}
				b.TS()
				if keys && len(b.Keys()) != b.Len() {
					t.Fatalf("%d keys for %d rows", len(b.Keys()), b.Len())
				}
			}
			for i := 0; i < 2*len(segs[0].meta.Index); i++ {
				next() // the first segments size the arena and the slots
			}
			if avg := testing.AllocsPerRun(blocks/2, next); avg != 0 {
				t.Fatalf("a steady-state projected v9 block costs %.2f allocations, want 0", avg)
			}
		})
	}
}

// TestSourceScanAllocBudget pins what a source read costs: a chain scan
// under a Match, unprojected as the events scanner reads it, over blocks
// that each hold one row of the source among 63 of others — a busy
// component, which no footer can prune. A kept block allocates nothing in
// steady state, and where the scan takes fresh room for every block's
// templated text (as a Row cursor's does) it builds the text of the
// selected row alone: a decoder that reassembled whole blocks and then
// dropped the rows the Match rejects would build 64 rows' text a block.
func TestSourceScanAllocBudget(t *testing.T) {
	const blocks = 64
	rows := eventRows(blocks*indexEvery, 1000, false, func(i int) string {
		if i%indexEvery == 7 {
			return "busy"
		}
		return fmt.Sprintf("c%d-0c0s%dn%d", i%4, i%7, i%3)
	})
	seg := matchSegment(t, "busy", nil, rows)
	m := NewMatch(GroupColumn, "busy")
	sc, err := ChainBatches(Range{}, false, []*Segment{seg}, []ScanConfig{{Pruner: m, Select: m}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	next := func() {
		b, ok := sc.Next()
		if !ok || b.Len() != 1 {
			t.Fatalf("a block of the busy source yields %v rows (%v)", b, sc.Err())
		}
		if b.TS()[0] < 0 || len(b.Cells(0)) != 4 {
			t.Fatalf("selected row: timestamp %d, cells %v", b.TS()[0], b.Cells(0))
		}
	}
	for i := 0; i < 4; i++ {
		next() // the first blocks size the arena and the room
	}
	if avg := testing.AllocsPerRun(blocks/2, next); avg != 0 {
		t.Fatalf("a steady-state kept block of a source read costs %.2f allocations, want 0", avg)
	}
	sc.b.room = nil
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const measured = 8
	for i := 0; i < measured; i++ {
		next()
	}
	runtime.ReadMemStats(&after)
	text := len(rows[7].ColID(templateColID))
	if perBlock := int(after.TotalAlloc-before.TotalAlloc) / measured; perBlock > 2*text {
		t.Fatalf("a kept block builds %d bytes of fresh text, its one selected row's is %d", perBlock, text)
	}
}
