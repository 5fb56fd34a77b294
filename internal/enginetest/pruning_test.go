package enginetest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"hpclog/internal/compute"
	"hpclog/internal/cql"
	"hpclog/internal/plan"
	"hpclog/internal/store"
	"hpclog/internal/store/persist"
)

// needleStore builds a single-replica durable store with one hot
// partition spread over many segment files: nRows time-ordered rows, a
// "jobid" column that is "batch-common" everywhere except a narrow window
// where it is "needle-rare" (<5% of rows), and an ascending numeric
// "amount" — both among persist.DefaultZoneColumns. FlushThreshold 512
// with background compaction disabled yields nRows/512 segments of 8
// blocks each.
func needleStore(t testing.TB, nRows int) (*store.DB, int) {
	t.Helper()
	db, err := store.OpenDurable(store.Config{
		Nodes: 1, RF: 1, VNodes: 8,
		FlushThreshold:  512,
		CompactInterval: -1,
		Dir:             t.TempDir(),
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
	// Push everything into segment files so the scan is disk-shaped.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return db, needles
}

// TestPruningSelectivePredicate is the acceptance criterion: a selective
// predicate (<5% of rows) over a multi-segment durable store must skip
// at least 80% of the blocks — proven by the pruning counters — with
// results byte-identical to the unpruned plan.
func TestPruningSelectivePredicate(t *testing.T) {
	const nRows = 16384
	db, needles := needleStore(t, nRows)
	if f := float64(needles) / nRows; f >= 0.05 {
		t.Fatalf("needle fraction %.3f not selective", f)
	}
	eng := compute.NewEngine(compute.Config{Workers: []string{"w0"}})
	run := func(noPrune bool) ([]plan.ResultRow, *persist.PruneStats) {
		t.Helper()
		stmt, err := cql.Parse("SELECT * FROM runs WHERE partition = 'hot' AND jobid = 'needle-rare'")
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(*cql.SelectStmt)
		p, err := plan.Build(&plan.Select{
			Table: sel.Table, Partition: sel.Partition, Where: sel.Where,
		})
		if err != nil {
			t.Fatal(err)
		}
		var stats persist.PruneStats
		ex := &plan.Executor{DB: db, Eng: eng, CL: store.One, Stats: &stats,
			Opt: plan.ExecOptions{NoPrune: noPrune}}
		rows, err := ex.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return rows, &stats
	}

	prunedRows, prunedStats := run(false)
	fullRows, fullStats := run(true)

	if len(prunedRows) != needles {
		t.Fatalf("pruned plan returned %d rows, want %d", len(prunedRows), needles)
	}
	pj, fj := mustMarshal(t, prunedRows), mustMarshal(t, fullRows)
	if !bytes.Equal(pj, fj) {
		t.Fatalf("pruned and unpruned results differ:\npruned: %.300s\nfull:   %.300s", pj, fj)
	}

	read := prunedStats.BlocksRead.Load()
	pruned := prunedStats.BlocksPruned.Load()
	total := read + pruned
	if total == 0 {
		t.Fatal("no blocks considered; store produced no segments")
	}
	// A NoPrune run goes down the plain scan path: no pruner, no block
	// accounting at all.
	if fullStats.BlocksPruned.Load() != 0 || fullStats.BlocksRead.Load() != 0 {
		t.Fatalf("NoPrune run recorded block counters: %+v", fullStats)
	}
	ratio := float64(pruned) / float64(total)
	t.Logf("blocks: %d total, %d read, %d pruned (%.1f%%)", total, read, pruned, 100*ratio)
	if ratio < 0.80 {
		t.Fatalf("pruned %.1f%% of %d blocks; acceptance requires >= 80%%", 100*ratio, total)
	}

	// The engine's aggregate counters surfaced through /v1/stats must
	// have absorbed the same numbers.
	st := eng.Stats()
	if st.BlocksPruned < int(pruned) || st.BlocksRead < int(read) {
		t.Fatalf("compute.Stats counters lag: %+v vs read=%d pruned=%d", st, read, pruned)
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
