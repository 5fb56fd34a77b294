//go:build !race

package ingest

import (
	"testing"
	"time"

	"hpclog/internal/compute"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// TestBatchImportAllocBudget pins what the bulk load may allocate per
// imported event, from the raw line to its one row on three replicas of
// a durable store — in the commitlog and a memtable, or, for a partition
// of a flush threshold's rows or more, in a round of its own: 2 objects to
// parse the line (its attribute map), the row (column slice and
// clustering key), its partition key, and a share of what a partition's
// one PutBatch costs. Measured 5.8; 7.8 when the line was parsed with
// regexps, 11.6 when every event also had a row in the per-component
// table. Excluded under -race.
func TestBatchImportAllocBudget(t *testing.T) {
	const budget = 6.4 // objects per event: the measured figure and a tenth
	corpus := smallCorpus()
	lines := make([]string, len(corpus.Lines))
	for i, l := range corpus.Lines {
		lines[i] = l.Format()
	}
	// AllocsPerRun calls the function twice (a warm-up, one measured run)
	// and every call needs an empty store.
	var dbs []*store.DB
	for i := 0; i < 2; i++ {
		db, err := store.OpenDurable(store.Config{
			Nodes: 4, Dir: t.TempDir(), WALSyncPeriod: 2 * time.Millisecond, CompactInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := Bootstrap(db, topology.NodesPerCabinet); err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	eng := compute.NewEngine(compute.Config{Workers: dbs[0].NodeIDs()})
	call := 0
	perRun := testing.AllocsPerRun(1, func() {
		res, err := BatchImport(eng, dbs[call], lines, store.Quorum, 16)
		if err != nil || res.EventsLoaded != len(lines) {
			t.Fatalf("import: %+v, %v", res, err)
		}
		call++
	})
	perEvent := perRun / float64(len(lines))
	t.Logf("bulk import of %d lines: %.1f objects per event", len(lines), perEvent)
	if perEvent > budget {
		t.Fatalf("bulk import allocates %.1f objects per event, budget %.1f", perEvent, budget)
	}
}
