package enginetest

import (
	"bytes"
	"fmt"
	"testing"

	"hpclog/internal/compute"
	"hpclog/internal/cql"
	"hpclog/internal/objstore"
	"hpclog/internal/plan"
	"hpclog/internal/store"
	"hpclog/internal/store/persist"
)

// TestTieredEngineCorpus proves the object-storage tier invisible to the
// query layer: with every sealed segment force-evicted to a local-fs
// object store (local data files replaced by footer stubs), every
// query.Op result is byte-identical to the memtable-resident path — including
// after a restart, where recovery reattaches the tier from stubs and the
// manifest alone.
func TestTieredEngineCorpus(t *testing.T) {
	mem := New(t)
	tr := NewTiered(t)

	up, ev, err := tr.DB.TierSweep(true)
	if err != nil {
		t.Fatal(err)
	}
	if up == 0 || ev == 0 {
		t.Fatalf("force sweep did nothing: uploaded=%d evicted=%d", up, ev)
	}
	st := tr.DB.StorageStats()
	if st.DiskSegments == 0 || st.TieredSegments != st.DiskSegments {
		t.Fatalf("want 100%% of segments evicted: %d tiered of %d", st.TieredSegments, st.DiskSegments)
	}

	rows := rowResults(t, mem)
	sameRowResults(t, "tiered", rows, rowResults(t, tr))
	cases := Cases(mem)
	want := make(map[string][]byte, len(cases))
	for _, c := range cases {
		t.Run("evicted/"+c.Name, func(t *testing.T) {
			memRes, err := mem.Direct(c.Req)
			if err != nil {
				t.Fatalf("in-memory execution: %v", err)
			}
			trRes := tr.Run(t, c) // direct-vs-wire parity on the tiered stack
			if !bytes.Equal(memRes, trRes) {
				t.Fatalf("tiered result differs from in-memory:\nmem:    %.300s\ntiered: %.300s", memRes, trRes)
			}
			want[c.Name] = trRes
			pinAnswer(t, c.Name, trRes)
		})
	}
	if tr.DB.Tier().FetchedBlocks.Load() == 0 {
		t.Fatal("corpus ran entirely without object fetches; eviction did not take")
	}

	// Restart: the store reopens from stubs + TIER manifest and must keep
	// answering byte-identically through the read-through cache.
	tr.Reopen(t)
	st = tr.DB.StorageStats()
	if st.DiskSegments == 0 || st.TieredSegments != st.DiskSegments {
		t.Fatalf("eviction lost across reopen: %d tiered of %d", st.TieredSegments, st.DiskSegments)
	}
	sameRowResults(t, "tiered after restart", rows, rowResults(t, tr))
	for _, c := range Cases(tr) {
		t.Run("reopen/"+c.Name, func(t *testing.T) {
			got := tr.Run(t, c)
			pinAnswer(t, c.Name, got)
			if !bytes.Equal(got, want[c.Name]) {
				t.Fatalf("result changed across restart:\nbefore: %.300s\nafter:  %.300s", want[c.Name], got)
			}
		})
	}
}

// TestTieredPruningFetchesOnlyNeededBlocks is the selective-read
// acceptance criterion for tiering: a selective predicate over a store
// whose segments are all evicted must fetch only the blocks zone-map
// pruning lets through — pruned blocks never leave the object store.
func TestTieredPruningFetchesOnlyNeededBlocks(t *testing.T) {
	const nRows = 16384
	db, needles := tieredNeedleStore(t, nRows)

	stmt, err := cql.Parse("SELECT * FROM runs WHERE partition = 'hot' AND jobid = 'needle-rare'")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*cql.SelectStmt)
	p, err := plan.Build(&plan.Select{Table: sel.Table, Partition: sel.Partition, Where: sel.Where})
	if err != nil {
		t.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: []string{"w0"}})
	var stats persist.PruneStats
	ex := &plan.Executor{DB: db, Eng: eng, CL: store.One, Stats: &stats}
	rows, err := ex.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != needles {
		t.Fatalf("tiered pruned scan returned %d rows, want %d", len(rows), needles)
	}

	read := stats.BlocksRead.Load()
	pruned := stats.BlocksPruned.Load()
	fetched := int64(db.Tier().FetchedBlocks.Load())
	total := read + pruned
	t.Logf("blocks: %d total, %d read, %d pruned, %d fetched", total, read, pruned, fetched)
	if total == 0 || pruned == 0 {
		t.Fatal("no pruning happened; the fetch bound below would be vacuous")
	}
	if fetched == 0 {
		t.Fatal("evicted scan fetched nothing; eviction did not take")
	}
	// Every fetch is for a block the pruner let through: at most one fetch
	// per surviving block (single-flight + cache can only lower it), and
	// strictly fewer fetches than total blocks.
	if fetched > read {
		t.Fatalf("fetched %d blocks but only %d survived pruning", fetched, read)
	}
}

// tieredNeedleStore is needleStore with a local-fs tier attached and
// every sealed segment force-evicted, so scans are object-store-shaped.
func tieredNeedleStore(t testing.TB, nRows int) (*store.DB, int) {
	t.Helper()
	db, err := store.OpenDurable(store.Config{
		Nodes: 1, RF: 1, VNodes: 8,
		FlushThreshold:  512,
		CompactInterval: -1,
		Dir:             t.TempDir(),
		Tier:            objstore.Config{Backend: "fs", Dir: t.TempDir(), CacheBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable("runs"); err != nil {
		t.Fatal(err)
	}
	needleLo, needleHi := nRows/2, nRows/2+nRows/25 // 4% of rows
	needles := 0
	batch := make([]store.Row, 0, 256)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if err := db.PutBatch("runs", "hot", batch, store.One); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
	}
	for i := 0; i < nRows; i++ {
		job := "batch-common"
		if i >= needleLo && i < needleHi {
			job = "needle-rare"
			needles++
		}
		batch = append(batch, store.MakeRow(store.EncodeTS(int64(100000+i)), 0, []store.Col{
			store.C("jobid", job),
			store.C("amount", fmt.Sprintf("%d", i)),
			store.C("source", fmt.Sprintf("c%d-0", i%4)),
		}))
		if len(batch) == 256 {
			flush()
		}
	}
	flush()
	up, ev, err := db.TierSweep(true) // flushes, then evicts every segment
	if err != nil {
		t.Fatal(err)
	}
	if up == 0 || ev == 0 {
		t.Fatalf("force sweep did nothing: uploaded=%d evicted=%d", up, ev)
	}
	if st := db.StorageStats(); st.TieredSegments != st.DiskSegments || st.DiskSegments == 0 {
		t.Fatalf("want 100%% evicted: %d of %d", st.TieredSegments, st.DiskSegments)
	}
	return db, needles
}
