//go:build !race

package analytics

import (
	"context"
	"testing"
	"time"

	"hpclog/internal/model"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// Allocation regression guard for the batch folds: a histogram or heat-map
// scan of one on-disk partition allocates a constant per scan (snapshot,
// scanner, vectors) and nothing per block or row — no block string, no
// cell arena, no store.Row, no model.Event. Excluded under -race (the
// detector adds bookkeeping allocations).
func TestBatchFoldAllocBudget(t *testing.T) {
	db, err := store.OpenDurable(store.Config{Nodes: 1, RF: 1, FlushThreshold: 1 << 20, CompactInterval: -1, Dir: t.TempDir(), WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(model.TableEventByTime); err != nil {
		t.Fatal(err)
	}
	start := time.Unix(1503468000, 0).UTC()
	sizes := map[string]int{"small": 2048, "large": 4096}
	for pkey, n := range sizes {
		rows := make([]store.Row, n)
		for i := range rows {
			rows[i] = model.EventToTimeRow(model.Event{
				Time: start.Add(time.Duration(i) * time.Second), Type: model.MCE, Count: 1 + i%3,
				Source: topology.LocationOf(topology.NodeID(i % 512)).CName(),
				Raw:    "Machine Check Exception: bank 4 status corrected",
				Attrs:  map[string]string{"bank": "4", "cpu": "12"},
			})
		}
		if err := db.PutBatch(model.TableEventByTime, pkey, rows, store.All); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	hist := histFold(start, time.Minute, 120)
	folds := []struct {
		name    string
		project []uint32
		acc     []int
		fold    func([]int, *store.Batch) ([]int, error)
	}{
		{"histogram", projAmount, make([]int, 120), hist},
		{"heatmap", projSourceAmount, make([]int, topology.Cabinets), heatFold},
	}
	for _, f := range folds {
		perScan := map[string]float64{}
		for pkey, n := range sizes {
			scan := func() {
				rows := 0
				err := db.ScanPartitionBatches(context.Background(), model.TableEventByTime, pkey, store.Range{}, f.project, nil, nil,
					func(b *store.Batch) (err error) {
						rows += b.Len()
						f.acc, err = f.fold(f.acc, b)
						return err
					})
				if err != nil || rows != n {
					t.Fatalf("%s: scanned %d rows of %d: %v", f.name, rows, n, err)
				}
			}
			scan() // warm the buffer pool
			perScan[pkey] = testing.AllocsPerRun(20, scan)
		}
		const budget = 16
		if perScan["small"] > budget {
			t.Errorf("%s scan of %d rows allocates %.0f objects/run, budget %d", f.name, sizes["small"], perScan["small"], budget)
		}
		if perScan["large"] != perScan["small"] {
			t.Errorf("%s scan allocates %.0f objects over %d rows but %.0f over %d: something allocates per block",
				f.name, perScan["small"], sizes["small"], perScan["large"], sizes["large"])
		}
	}
}
