package store

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hpclog/internal/store/persist"
)

// collectBatchScan drains ScanPartitionBatches into deep-copied rows: a
// projected batch contributes its projected, non-empty cells.
func collectBatchScan(t testing.TB, db *DB, table, pkey string, rg Range, project []uint32, pr Pruner, stats *PruneStats) []Row {
	t.Helper()
	var out []Row
	err := db.ScanPartitionBatches(context.Background(), table, pkey, rg, project, pr, stats, func(b *Batch) error {
		for i := range b.Len() {
			// The cells first, then the row — whose key the first row of a
			// batch builds.
			var vals []string
			for _, id := range project {
				vals = append(vals, strings.Clone(b.Col(id)[i]))
			}
			r := b.Row(i)
			var cols []Col
			for _, c := range r.Cols() {
				cols = append(cols, Col{ID: c.ID, Value: strings.Clone(c.Value)})
			}
			for k, id := range project {
				if vals[k] != r.ColID(id) {
					t.Fatalf("row %q: Col(%d) = %q but Row().ColID = %q", r.Key, id, vals[k], r.ColID(id))
				}
			}
			out = append(out, MakeRow(strings.Clone(r.Key), r.WriteTS, cols))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// projectRows cuts rows to the projection's non-empty cells.
func projectRows(rows []Row, project []uint32) []Row {
	if project == nil {
		return rows
	}
	out := make([]Row, len(rows))
	for i, r := range rows {
		var cols []Col
		for _, id := range project {
			if v := r.ColID(id); v != "" {
				cols = append(cols, Col{ID: id, Value: v})
			}
		}
		out[i] = MakeRow(r.Key, r.WriteTS, cols)
	}
	return out
}

// keyPruner skips blocks that lie entirely below a clustering key: a
// pruner whose verdict the test can predict without a predicate engine.
type keyPruner struct{ below string }

func (p keyPruner) PruneBlock(b *persist.BlockStats) bool { return b.MaxKey < p.below }

// batchScenario builds one partition ("t"/"p") through a list of steps on
// a single-node store, so the test controls exactly which merge inputs a
// scan snapshot sees.
type batchScenario struct {
	name    string
	durable bool
	// steps are applied in order; flush publishes the memtable as a disk
	// segment when durable, and otherwise hands it to a flush round as the
	// partition's flushing run, which stays resident because the round
	// never ends.
	steps []struct {
		rows  []Row
		flush bool
	}
	wantChained bool
}

func scenarioRows(lo, hi int, writeTS int64, gen string) []Row {
	rows := make([]Row, 0, hi-lo)
	for i := lo; i < hi; i++ {
		cols := []Col{C("amount", fmt.Sprint(1+i%7)), C("gen", gen)}
		if i%3 != 0 {
			cols = append(cols, C("source", fmt.Sprintf("c%d-0c1s2n%d", i%4, i%4)))
		}
		if i%5 == 0 {
			cols = append(cols, C("raw", fmt.Sprintf("message %d of generation %s", i, gen)))
		}
		rows = append(rows, MakeRow(EncodeTS(int64(1000+i))+":k", writeTS, cols))
	}
	return rows
}

func (sc batchScenario) open(t *testing.T) *DB {
	t.Helper()
	cfg := Config{Nodes: 1, RF: 1, FlushThreshold: 1 << 20, CompactInterval: -1, Dir: t.TempDir(), WALNoSync: true}
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	n := db.Node(db.NodeIDs()[0])
	for _, st := range sc.steps {
		// Rows carry their own write timestamps (ties included), so they
		// go in the way replicated rows do.
		if err := n.apply(context.Background(), "t", "p", st.rows, nil); err != nil {
			t.Fatal(err)
		}
		if !st.flush {
			continue
		}
		if sc.durable {
			if err := n.flushAll(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		tbl, _ := n.table("t")
		tbl.partition("p", false).beginFlush(1)
	}
	return db
}

// TestScanPartitionBatchesMatchesPruned is the differential test of the
// batch read path: for one segment, disjoint segments plus a newer
// memtable (chained), and overlapping inputs with duplicate keys and
// write-timestamp ties (merged), on disk and in the resident runs alone (a
// flushing run and the memtable), random (range, projection, pruner)
// triples must yield exactly the rows and cells of ScanPartitionPruned —
// with the block buffer poisoned between batches.
func TestScanPartitionBatchesMatchesPruned(t *testing.T) {
	persist.PoisonBatches.Store(true)
	defer persist.PoisonBatches.Store(false)
	type step = struct {
		rows  []Row
		flush bool
	}
	oneSegment := []step{{scenarioRows(0, 500, 1, "a"), true}}
	disjoint := []step{
		{scenarioRows(0, 200, 1, "a"), true},
		{scenarioRows(200, 400, 2, "b"), true},
		{scenarioRows(400, 450, 3, "c"), false},
	}
	overlapping := []step{
		{scenarioRows(0, 300, 5, "a"), true},
		{scenarioRows(150, 450, 9, "b"), true}, // duplicate keys, newer
		{scenarioRows(100, 160, 5, "c"), true}, // ties with "a": the greater cells ("gen" c) win
		{scenarioRows(290, 310, 9, "d"), false},
	}
	// In RAM only one flushing run stands beside the memtable, so the
	// resident scenarios keep the first flush and fold the later steps
	// into the memtable.
	resident := []step{
		{scenarioRows(0, 300, 5, "a"), true},
		{scenarioRows(150, 450, 9, "b"), false},
		{scenarioRows(100, 160, 5, "c"), false}, // ties with "a": the greater cells ("gen" c) win
		{scenarioRows(290, 310, 9, "d"), false},
	}
	scenarios := []batchScenario{
		{"disk/one-segment", true, oneSegment, true},
		{"disk/disjoint+memtable", true, disjoint, true},
		{"disk/overlapping", true, overlapping, false},
		{"memory/one-segment", false, oneSegment, true},
		{"memory/disjoint+memtable", false, []step{disjoint[0], {scenarioRows(200, 450, 2, "b"), false}}, true},
		{"memory/overlapping", false, resident, false},
	}
	all := []uint32{InternColumn("amount"), InternColumn("gen"), InternColumn("source"), InternColumn("raw"), InternColumn("never-written")}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			db := sc.open(t)
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 150; trial++ {
				var rg Range
				if rng.Intn(4) > 0 {
					rg.From = EncodeTS(int64(950 + rng.Intn(550)))
				}
				if rng.Intn(4) > 0 {
					rg.To = EncodeTS(int64(950 + rng.Intn(550)))
				}
				var project []uint32
				if rng.Intn(4) > 0 {
					project = []uint32{}
					for _, k := range rng.Perm(len(all))[:rng.Intn(len(all)+1)] {
						project = append(project, all[k])
					}
				}
				var pr Pruner
				if rng.Intn(2) == 0 {
					pr = keyPruner{below: EncodeTS(int64(950 + rng.Intn(550)))}
				}
				var wantStats, gotStats PruneStats
				it, err := db.ScanPartitionPruned("t", "p", rg, One, pr, &wantStats)
				if err != nil {
					t.Fatal(err)
				}
				want := projectRows(collectIter(t, it), project)
				before := db.StorageStats()
				got := collectBatchScan(t, db, "t", "p", rg, project, pr, &gotStats)
				if !sameRows(got, want) {
					t.Fatalf("range %+v projection %v pruner %v: batch scan yields %d rows that differ from the row scan's %d",
						rg, project, pr, len(got), len(want))
				}
				if gotStats.BlocksRead.Load() != wantStats.BlocksRead.Load() || gotStats.BlocksPruned.Load() != wantStats.BlocksPruned.Load() {
					t.Fatalf("range %+v pruner %v: batch scan read/pruned %d/%d blocks, row scan %d/%d", rg, pr,
						gotStats.BlocksRead.Load(), gotStats.BlocksPruned.Load(), wantStats.BlocksRead.Load(), wantStats.BlocksPruned.Load())
				}
				after := db.StorageStats()
				if after.ChainedScans+after.MergedScans != before.ChainedScans+before.MergedScans+1 {
					t.Fatalf("one batch scan moved the path counters from %d+%d to %d+%d",
						before.ChainedScans, before.MergedScans, after.ChainedScans, after.MergedScans)
				}
			}
			// The whole partition takes the path the scenario was built for.
			before := db.StorageStats()
			collectBatchScan(t, db, "t", "p", Range{}, nil, nil, nil)
			after := db.StorageStats()
			if chained := after.ChainedScans > before.ChainedScans; chained != sc.wantChained {
				t.Fatalf("full scan chained = %v, want %v", chained, sc.wantChained)
			}
			// Get's replica read is not an aggregation scan: it counts on
			// neither path.
			if _, err := db.Get("t", "p", Range{}, One); err != nil {
				t.Fatal(err)
			}
			if st := db.StorageStats(); st.ChainedScans != after.ChainedScans || st.MergedScans != after.MergedScans {
				t.Fatalf("a Get moved the path counters from %d+%d to %d+%d",
					after.ChainedScans, after.MergedScans, st.ChainedScans, st.MergedScans)
			}
		})
	}
}

// TestBatchScanConcurrentWithMaintenance runs batch scans against
// concurrent writers, flush rounds and compaction rounds (the race
// detector's half of the batch-path contract): every scan must see keys
// strictly ascending and never fewer rows than were acknowledged before it
// began.
func TestBatchScanConcurrentWithMaintenance(t *testing.T) {
	db, err := OpenDurable(Config{Nodes: 2, RF: 2, FlushThreshold: 64, CompactInterval: -1, Dir: t.TempDir(), WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	const (
		writers   = 2
		perWriter = 600
		batch     = 20
	)
	var acked atomic.Int64 // distinct keys acknowledged so far
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < perWriter; i += batch {
				rows := make([]Row, batch)
				for j := range rows {
					// Interleaved keys: the two writers' memtables and
					// flushed segments overlap, so scans take both paths.
					k := (i+j)*writers + w
					rows[j] = MakeRow(EncodeTS(int64(k))+":k", 0, []Col{C("amount", "1"), C("raw", fmt.Sprint("row ", k))})
				}
				if err := db.PutBatch("t", "p", rows, All); err != nil {
					t.Error(err)
					return
				}
				acked.Add(batch)
			}
		}()
	}
	stop := make(chan struct{})
	var background sync.WaitGroup
	maintain := func(fn func() error) {
		background.Add(1)
		go func() {
			defer background.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := fn(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	maintain(db.Flush)
	maintain(func() error { _, err := db.Compact(); return err })
	amount := InternColumn("amount")
	for s := 0; s < 2; s++ {
		maintain(func() error {
			floor := acked.Load()
			var rows int64
			last := ""
			err := db.ScanPartitionBatches(context.Background(), "t", "p", Range{}, []uint32{amount}, nil, nil, func(b *Batch) error {
				for i, k := range b.Keys() {
					if k <= last {
						return fmt.Errorf("key %q after %q", k, last)
					}
					if v := b.Col(amount)[i]; v != "1" {
						return fmt.Errorf("key %q: amount %q", k, v)
					}
					last = strings.Clone(k)
				}
				rows += int64(b.Len())
				return nil
			})
			if err == nil && rows < floor {
				err = fmt.Errorf("scan saw %d rows, %d were acknowledged before it began", rows, floor)
			}
			return err
		})
	}
	writing.Wait()
	close(stop)
	background.Wait()
	if got := len(collectBatchScan(t, db, "t", "p", Range{}, nil, nil, nil)); got != writers*perWriter {
		t.Fatalf("final scan sees %d rows, want %d", got, writers*perWriter)
	}
	st := db.StorageStats()
	t.Logf("scan paths exercised: %d chained, %d merged", st.ChainedScans, st.MergedScans)
}
