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
	// Every block is an event_by_time, application or reference block: a
	// block of many sources, each a Bloom cell and a group-list code, where
	// the per-component event table's one-source blocks once halved the
	// averages.
	persist.CheckFootprint(t, total, persist.FootprintBudget{
		BloomPerBlock: 128, ZonesPerBlock: 112, IndexPerBlock: 34, FoldPerBlock: 5, GroupsPerBlock: 26,
		DirPerSection: 5, RefsPerSection: 38, CodecPerSection: 13, MetaPerSection: 96,
	})
}
