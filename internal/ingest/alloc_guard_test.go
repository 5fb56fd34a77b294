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
// imported event, from the raw line to its one row in the commitlog and
// the memtables of three replicas on a durable store: 4 objects to parse
// the line, the row (column slice and clustering key), its partition key,
// and a share of what a partition's one PutBatch costs. Measured 7.8 with
// one row per event; 11.6 when every event also had a row in the
// per-component table. Excluded under -race.
func TestBatchImportAllocBudget(t *testing.T) {
	const budget = 8.6 // objects per event: the one-row figure and a tenth
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
