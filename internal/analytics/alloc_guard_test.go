//go:build !race

package analytics

import (
	"context"
	"runtime"
	"runtime/debug"
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

	hist := bins{from: start, width: time.Minute, n: 120}.fold
	var histAcc BinCounts
	heatAcc := make([]int, topology.Cabinets)
	folds := []struct {
		name    string
		project []uint32
		fold    func(*store.Batch) error
	}{
		{"histogram", projAmount, func(b *store.Batch) (err error) { histAcc, err = hist(histAcc, b); return err }},
		{"heatmap", projSourceAmount, func(b *store.Batch) (err error) { heatAcc, err = HeatmapFold.Fold(heatAcc, b); return err }},
	}
	for _, f := range folds {
		perScan := map[string]float64{}
		for pkey, n := range sizes {
			scan := func() {
				rows := 0
				err := db.ScanPartitionBatches(context.Background(), model.TableEventByTime, pkey, store.Range{}, store.One, f.project, nil, nil,
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
// window's terms, a text fold over an hour partition allocates the same
// small number of objects over 2 048 rows as over 4 096 — no string, map
// entry or other object per row, per block or per term, only the answer
// and the scan's fixed bookkeeping. TF-IDF runs over one-off hex terms
// (each MCE status a word of its own, tokenised from its cell); word count
// over messages whose holes a section dictionary codes, counted by code
// tuple. The window is one task, so each run draws the same pooled
// accumulators for the same parts.
func TestTextFoldAllocBudget(t *testing.T) {
	db := openStore(t, store.Config{Nodes: 1, RF: 1, FlushThreshold: 1 << 20, CompactInterval: -1})
	if err := db.CreateTable(model.TableEventByTime); err != nil {
		t.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs(), Parallelism: 1})
	hour := time.Unix(1503468000, 0).UTC()
	sizes := map[string]int{"small": 2048, "large": 4096}
	starts := map[string]time.Time{"small": hour, "large": hour.Add(time.Hour)}
	for name, n := range sizes {
		putTextRows(t, db, starts[name], n)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	cfg := ScanConfig{Slice: time.Hour}
	// A collection empties the pool of accumulators, which the counts
	// below take as full: none runs while they are taken.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A fold's budget is 64 objects, plus one string per term of a word
	// count's answer, which holds them all.
	folds := []struct {
		name string
		run  func(from time.Time) (terms int, err error)
		own  bool // the answer's terms cost a string each beyond the budget
	}{
		{"TF-IDF over one-off terms", func(from time.Time) (int, error) {
			top, err := tfidf(eng, db, model.MCE, from, from.Add(time.Hour), 10, cfg)
			return len(top), err
		}, false},
		{"word count over dictionary-coded holes", func(from time.Time) (int, error) {
			counts, err := wordCounts(eng, db, model.Lustre, from, from.Add(time.Hour), cfg)
			return len(counts), err
		}, true},
	}
	for _, f := range folds {
		perScan, budget := map[string]float64{}, 64
		for name, n := range sizes {
			query := func() {
				terms, err := f.run(starts[name])
				if err != nil || terms < 10 {
					t.Fatalf("%s over %d rows: %d terms, %v", f.name, n, terms, err)
				}
				if f.own {
					budget = 64 + terms
				}
			}
			query() // grow a pooled vocabulary to the window's terms
			perScan[name] = testing.AllocsPerRun(20, query)
		}
		if perScan["small"] > float64(budget) {
			t.Errorf("%s over %d rows allocates %.0f objects/run, budget %d", f.name, sizes["small"], perScan["small"], budget)
		}
		if perScan["large"] != perScan["small"] {
			t.Errorf("%s allocates %.0f objects over %d rows but %.0f over %d: something allocates per row, block or term",
				f.name, perScan["small"], sizes["small"], perScan["large"], sizes["large"])
		}
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
	hist, err := histogram(eng, db, model.MCE, from, to, time.Minute, ScanConfig{}, false)
	runtime.ReadMemStats(&after)
	if err != nil || len(hist) != 30*24*60 {
		t.Fatalf("%d bins: %v", len(hist), err)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 8 {
		t.Errorf("a 30-day histogram of 60 s bins allocates %.1f MB, budget 8 MB", mb)
	}
	if _, err := HistogramFold(from, to, time.Second); err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxBins)) {
		t.Errorf("%d bins of 1 s: error %v, want one naming the limit %d", 30*24*3600, err, MaxBins)
	}
}
