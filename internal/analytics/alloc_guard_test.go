//go:build !race

package analytics

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpclog/internal/compute"
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

	hist := histFold(bins{from: start, width: time.Minute, n: 120})
	var histAcc binCounts
	heatAcc := make([]int, topology.Cabinets)
	folds := []struct {
		name    string
		project []uint32
		fold    func(*store.Batch) error
	}{
		{"histogram", projAmount, func(b *store.Batch) (err error) { histAcc, err = hist(histAcc, b); return err }},
		{"heatmap", projSourceAmount, func(b *store.Batch) (err error) { heatAcc, err = heatFold(heatAcc, b); return err }},
	}
	for _, f := range folds {
		perScan := map[string]float64{}
		for pkey, n := range sizes {
			scan := func() {
				rows := 0
				err := db.ScanPartitionBatches(context.Background(), model.TableEventByTime, pkey, store.Range{}, f.project, nil, nil,
					func(b *store.Batch) error {
						rows += b.Len()
						return f.fold(b)
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

// TestTextFoldAllocBudget: once a pooled vocabulary has room for a
// window's terms, TF-IDF over an hour partition of one-off hex terms (each
// MCE status a word of its own) allocates the same small number of objects
// over 2 048 rows as over 4 096 — no string, map entry or other object per
// row or per term, only the k answer strings and the scan's fixed
// bookkeeping. The window is one task, so each run draws the same pooled
// accumulators for the same parts.
func TestTextFoldAllocBudget(t *testing.T) {
	db := openStore(t, store.Config{Nodes: 1, RF: 1, FlushThreshold: 1 << 20, CompactInterval: -1})
	if err := db.CreateTable(model.TableEventByTime); err != nil {
		t.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	hour := time.Unix(1503468000, 0).UTC()
	sizes := map[string]int{"small": 2048, "large": 4096}
	starts := map[string]time.Time{"small": hour, "large": hour.Add(time.Hour)}
	for name, n := range sizes {
		rows := make([]store.Row, n)
		for i := range rows {
			status := strconv.FormatUint(uint64(i+n)*0x9e3779b97f4a7c15, 16)
			rows[i] = model.EventToTimeRow(model.Event{
				Time: starts[name].Add(time.Duration(i) * time.Hour / time.Duration(n)), Type: model.MCE, Count: 1,
				Source: topology.LocationOf(topology.NodeID(i % 512)).CName(),
				Raw:    "Machine Check Exception: bank 4 status " + status,
				Attrs:  map[string]string{"bank": "4", "status": status},
			})
		}
		if err := db.PutBatch(model.TableEventByTime, model.EventByTimeKey(starts[name].Unix()/3600, model.MCE), rows, store.All); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	perScan := map[string]float64{}
	for name, n := range sizes {
		query := func() {
			top, err := TFIDFScan(eng, db, model.MCE, starts[name], starts[name].Add(time.Hour), 10, ScanConfig{Parallelism: 1, Slice: time.Hour})
			if err != nil || len(top) != 10 {
				t.Fatalf("TF-IDF over %d rows: %v, %v", n, top, err)
			}
		}
		query() // grow a pooled vocabulary to the window's terms
		perScan[name] = testing.AllocsPerRun(20, query)
	}
	const budget = 64
	if perScan["small"] > budget {
		t.Errorf("TF-IDF over %d rows allocates %.0f objects/run, budget %d", sizes["small"], perScan["small"], budget)
	}
	if perScan["large"] != perScan["small"] {
		t.Errorf("TF-IDF allocates %.0f objects over %d rows but %.0f over %d: something allocates per row or term",
			perScan["small"], sizes["small"], perScan["large"], sizes["large"])
	}
}

// TestHistogramLongWindowAllocs bounds what one histogram over a long
// window allocates on an empty store: a task's accumulator holds only the
// bins its rows touch, so a 30-day window of 60 s bins costs its one
// 43 200-bin result and the tasks' bookkeeping, not 43 200 bins for each
// of its 2 880 tasks. A window of more than MaxBins bins is refused,
// naming the limit.
func TestHistogramLongWindowAllocs(t *testing.T) {
	db := openStore(t, store.Config{Nodes: 1, RF: 1})
	if err := db.CreateTable(model.TableEventByTime); err != nil {
		t.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	from := time.Unix(1503468000, 0).UTC()
	to := from.Add(30 * 24 * time.Hour)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hist, err := HistogramScan(eng, db, model.MCE, from, to, time.Minute, ScanConfig{})
	runtime.ReadMemStats(&after)
	if err != nil || len(hist) != 30*24*60 {
		t.Fatalf("%d bins: %v", len(hist), err)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 8 {
		t.Errorf("a 30-day histogram of 60 s bins allocates %.1f MB, budget 8 MB", mb)
	}
	if _, err := HistogramScan(eng, db, model.MCE, from, to, time.Second, ScanConfig{}); err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxBins)) {
		t.Errorf("%d bins of 1 s: error %v, want one naming the limit %d", 30*24*3600, err, MaxBins)
	}
}
