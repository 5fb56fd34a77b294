package plan

import (
	"path/filepath"
	"sort"
	"testing"

	"hpclog/internal/store"
	"hpclog/internal/store/persist"
)

// buildBlockStats writes rows (sorted and deduplicated by key) into a
// one-block segment with every quick-test column in the zone hot set and
// returns the stored rows plus the block's statistics.
func buildBlockStats(t testing.TB, rows []store.Row) ([]store.Row, *persist.BlockStats) {
	t.Helper()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	kept := rows[:0]
	for i, r := range rows {
		if i > 0 && len(kept) > 0 && kept[len(kept)-1].Key == r.Key {
			kept[len(kept)-1] = r
			continue
		}
		kept = append(kept, r)
	}
	w := persist.NewWriter("t", "p", 1)
	if err := w.SetZoneColumns(quickCols); err != nil {
		t.Fatal(err)
	}
	for _, r := range kept {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := w.Finish(filepath.Join(t.TempDir(), "b.seg"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	bs := seg.BlockStats()
	if len(bs) != 1 {
		t.Fatalf("expected one block, got %d", len(bs))
	}
	return kept, &bs[0]
}

func TestCmpPredZonePruning(t *testing.T) {
	rows := []store.Row{
		mkRow("a", "amount", "10", "source", "c1-0"),
		mkRow("b", "amount", "20", "source", "c2-0"),
		mkRow("c", "amount", "30", "source", "c3-0"),
	}
	_, b := buildBlockStats(t, rows)
	cases := []struct {
		expr  Expr
		prune bool
	}{
		{NewCmp(NewColRef("amount"), OpGt, "30"), true},
		{NewCmp(NewColRef("amount"), OpGe, "30"), false},
		{NewCmp(NewColRef("amount"), OpLt, "10"), true},
		{NewCmp(NewColRef("amount"), OpEq, "25"), false}, // inside numeric range
		{NewCmp(NewColRef("amount"), OpEq, "99"), true},
		{NewCmp(NewColRef("source"), OpEq, "c2-0"), false},
		{NewCmp(NewColRef("source"), OpEq, "c9-0"), true},  // zone range
		{NewCmp(NewColRef("source"), OpEq, "c1-9"), true},  // bloom (in range)
		{NewCmp(NewColRef("ghost"), OpEq, "x"), true},      // hot col absent
		{NewCmp(NewColRef("source"), OpNe, "c2-0"), false}, // NE never prunes
		{NewLike(NewColRef("source"), "c2-%"), false},
		{NewLike(NewColRef("source"), "d%"), true},
		{NewLike(NewColRef("source"), "%0"), false}, // suffix: not prunable
		{NewIn(NewColRef("source"), []string{"c9-1", "c9-2"}), true},
		{NewIn(NewColRef("source"), []string{"c9-1", "c2-0"}), false},
		{&Or{Kids: []Expr{
			NewCmp(NewColRef("amount"), OpGt, "99"),
			NewCmp(NewColRef("source"), OpEq, "zz"),
		}}, true},
		{&Not{Kid: NewCmp(NewColRef("amount"), OpGt, "99")}, false}, // NOT: never compiled
	}
	for i, c := range cases {
		bp := compileBlockPred(c.expr)
		got := bp != nil && bp.prune(b)
		if got != c.prune {
			t.Errorf("case %d (%s): prune=%v, want %v", i, c.expr, got, c.prune)
		}
	}
}

// TestNumericZoneVsBytewise pins the reason numeric zones exist: "9" >
// "10" bytewise, so a bytewise zone would wrongly prune amount > 9 on a
// block holding 10.
func TestNumericZoneVsBytewise(t *testing.T) {
	_, b := buildBlockStats(t, []store.Row{mkRow("a", "amount", "10")})
	bp := compileBlockPred(NewCmp(NewColRef("amount"), OpGt, "9"))
	if bp.prune(b) {
		t.Fatal("numeric predicate pruned via bytewise bounds")
	}
	if !compileBlockPred(NewCmp(NewColRef("amount"), OpGt, "10")).prune(b) {
		t.Fatal("amount > 10 should prune a block whose only value is 10")
	}
}
