package persist_test

import (
	"path/filepath"
	"testing"

	"hpclog/internal/enginetest"
	"hpclog/internal/store/persist"
)

// TestStoreFooterFootprint holds the footers of the engine-test corpus's
// durable store, flushed and compacted, to a budget per part, and its
// round files' string tables to less than the per-section tables they
// replace.
func TestStoreFooterFootprint(t *testing.T) {
	h := enginetest.NewDurable(t)
	if _, err := h.DB.Compact(); err != nil {
		t.Fatal(err)
	}
	dirs, err := filepath.Glob(filepath.Join(h.StoreCfg.Dir, "node-*", "seg"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("segment directories %v: %v", dirs, err)
	}
	var total persist.Footprint
	for _, dir := range dirs {
		fp, err := persist.FooterFootprint(dir)
		if err != nil {
			t.Fatal(err)
		}
		total = total.Plus(fp)
	}
	t.Log(total)
	persist.CheckFootprint(t, total, persist.FootprintBudget{
		BloomPerBlock: 64, ZonesPerBlock: 112, IndexPerBlock: 34, FoldPerBlock: 5, GroupsPerBlock: 8,
		DirPerSection: 5, RefsPerSection: 36, CodecPerSection: 13, MetaPerSection: 96,
	})
}
