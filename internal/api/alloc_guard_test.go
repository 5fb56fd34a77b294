//go:build !race

package api

import (
	"fmt"
	"testing"

	"hpclog/internal/query"
)

// Allocation budgets for the wire codec, the reason it exists: reflection
// cost the SDK about 19 allocations per event row and the server about 8.
// Excluded under -race (the detector adds bookkeeping allocations).

// budgetPage is a 500-event page shaped like the corpus: a repeated type,
// a few dozen sources, a distinct message and two attributes per row.
func budgetPage() *PageResult[query.EventRecord] {
	p := &PageResult[query.EventRecord]{NextCursor: "eyJ2IjoxLCJvcCI6ImV2ZW50cyJ9"}
	for i := 0; i < 500; i++ {
		p.Items = append(p.Items, query.EventRecord{
			Time: 1501426800 + int64(i), Type: "MEM_ECC", Source: fmt.Sprintf("c%d-0c1s%dn2", i%4, i%8), Count: 1 + i%3,
			Raw:   fmt.Sprintf("EDAC MC0: %d CE memory read error on CPU_SrcID#0_Ha#0_Chan#1_DIMM#0", i),
			Attrs: map[string]string{"dimm": fmt.Sprint(i % 16), "page": fmt.Sprintf("0x%x", i*4096)},
		})
	}
	return p
}

// TestWireEncodeAllocBudget encodes a runs page, the record shape the
// server still encodes (an event leaves it off its scan view, guarded by
// the server's TestRowWireAllocBudget).
func TestWireEncodeAllocBudget(t *testing.T) {
	page := &PageResult[query.RunRecord]{NextCursor: "eyJ2IjoxLCJvcCI6InJ1bnMifQ"}
	for i := 0; i < 500; i++ {
		page.Items = append(page.Items, query.RunRecord{
			JobID: fmt.Sprintf("job-%d", i), App: "vasp <mpi> & co", User: fmt.Sprintf("u%d", i%7),
			Start: 1501426800 + int64(i), End: 1501430400 + int64(i), ExitOK: i%5 != 0,
			Nodes: []string{fmt.Sprintf("c%d-0c1s%dn2", i%4, i%8), fmt.Sprintf("c%d-0c1s%dn3", i%4, i%8)},
		})
	}
	buf, err := AppendResponse(nil, "req-1", 3, page, nil) // warm the buffer
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		buf, _ = AppendResponse(buf[:0], "req-1", 3, page, nil)
	}); avg != 0 {
		t.Fatalf("encoding a 500-run page into a warmed buffer allocates %.1f objects, want 0", avg)
	}
}

func TestWireDecodeAllocBudget(t *testing.T) {
	page := budgetPage()
	body, err := AppendResponse(nil, "req-1", 3, page, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Per row: the attribute map (two objects) plus the growth of the
	// items slice; every string is a substring of the body's one copy.
	const perRow = 2.5
	avg := testing.AllocsPerRun(50, func() {
		var out PageResult[query.EventRecord]
		if _, err := DecodeResponse(body, &out); err != nil || len(out.Items) != len(page.Items) {
			t.Fatalf("decode: %v, %d items", err, len(out.Items))
		}
	})
	if got := avg / float64(len(page.Items)); got > perRow {
		t.Fatalf("decoding a 500-event page allocates %.2f objects per row, budget %.1f", got, perRow)
	}
}
