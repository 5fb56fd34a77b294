package persist

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

func TestDictInternStableAndConcurrent(t *testing.T) {
	d := NewDict()
	a := d.Intern("amount")
	if got := d.Intern("amount"); got != a {
		t.Fatalf("re-intern changed id: %d vs %d", got, a)
	}
	if name := d.Name(a); name != "amount" {
		t.Fatalf("Name(%d) = %q", a, name)
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
	if name := d.Name(1 << 20); name != "" {
		t.Fatalf("Name of unissued id = %q", name)
	}
	// Concurrent interning of an overlapping name set must yield one
	// stable id per name.
	var wg sync.WaitGroup
	ids := make([][]uint32, 8)
	for g := range ids {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]uint32, 100)
			for i := 0; i < 100; i++ {
				ids[g][i] = d.Intern(fmt.Sprintf("col-%d", i))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(ids); g++ {
		for i := range ids[g] {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d got id %d for col-%d, goroutine 0 got %d",
					g, ids[g][i], i, ids[0][i])
			}
		}
	}
	if d.Len() != 101 {
		t.Fatalf("dict has %d names, want 101", d.Len())
	}
}

// TestDictionaryGrowthAcrossUnits exercises the unit-table path the way a
// scan does: two blocks written with different (overlapping) column sets
// grow the decoder's dictionary incrementally, and every column resolves.
func TestDictionaryGrowthAcrossUnits(t *testing.T) {
	blockA := AppendRowsBlock(nil, []Row{
		MapRow("a", 1, map[string]string{"shared": "1", "only-a": "x"}),
	})
	blockB := AppendRowsBlock(nil, []Row{
		MapRow("b", 2, map[string]string{"shared": "2", "only-b": "y"}),
	})
	d := NewDict()
	rowsA, err := DecodeRowsBlock(NewStringDec(string(blockA)), d)
	if err != nil {
		t.Fatal(err)
	}
	grown := d.Len()
	if grown < 2 {
		t.Fatalf("dict learned %d names from block A, want >= 2", grown)
	}
	rowsB, err := DecodeRowsBlock(NewStringDec(string(blockB)), d)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != grown+1 {
		t.Fatalf("dict has %d names after block B, want %d (one new)", d.Len(), grown+1)
	}
	// Resolve columns through the decoding dictionary (the rows carry d's
	// IDs, not the process-wide ones).
	colsVia := func(r Row) map[string]string {
		m := make(map[string]string)
		for _, c := range r.Cols() {
			m[d.Name(c.ID)] = c.Value
		}
		return m
	}
	if got := colsVia(rowsA[0])["only-a"]; got != "x" {
		t.Fatalf("block A column = %q", got)
	}
	if got := colsVia(rowsB[0])["shared"]; got != "2" {
		t.Fatalf("block B shared column = %q", got)
	}
}

// TestCrossRestartDictionaryRecovery simulates a restart: segments written
// by one process incarnation are reopened and decoded against a brand-new
// dictionary (a fresh process knows no IDs). Nothing on disk references
// in-memory IDs — each segment's footer carries its own name table — so
// recovery must resolve every column, repopulating the new dictionary.
func TestCrossRestartDictionaryRecovery(t *testing.T) {
	dir := t.TempDir()
	rows := []Row{
		MapRow("k1", 1, map[string]string{"amount": "3", "source": "c0-0c0s0n0"}),
		MapRow("k2", 2, map[string]string{"amount": "1", "attr.bank": "7"}),
	}
	seg := writeTestSegment(t, filepath.Join(dir, "1.seg"), rows)
	seg.Close()

	// "Restart": reopen the file and decode its blocks against a fresh
	// dictionary, exactly what OpenSegment's footer path does against the
	// process dictionary of a new incarnation.
	seg2, err := OpenSegment(filepath.Join(dir, "1.seg"))
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()
	fresh := NewDict()
	ids := make([]uint32, len(seg2.meta.ColNames))
	for i, name := range seg2.meta.ColNames {
		ids[i] = fresh.Intern(name)
	}
	it, err := seg2.Scan(Range{})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	if !sameRows(got, rows) {
		t.Fatalf("restart decode mismatch: %+v", got)
	}
	// The fresh dictionary learned exactly the segment's name table.
	if fresh.Len() != len(seg2.meta.ColNames) {
		t.Fatalf("fresh dict has %d names, want %d", fresh.Len(), len(seg2.meta.ColNames))
	}
	for _, name := range []string{"amount", "source", "attr.bank"} {
		if _, ok := fresh.Lookup(name); !ok {
			t.Fatalf("fresh dict missing %q after recovery", name)
		}
	}
}
