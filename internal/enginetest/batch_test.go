package enginetest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hpclog/internal/model"
	"hpclog/internal/plan"
	"hpclog/internal/store"
	"hpclog/internal/store/persist"
)

// batchStacks are the stores the batch read path must be invisible on:
// memtable-resident, durable (segments, memtables, commitlog replay) and with
// every sealed segment evicted to the object tier.
func batchStacks(t *testing.T) map[string]*Harness {
	tiered := NewTiered(t)
	if _, ev, err := tiered.DB.TierSweep(true); err != nil || ev == 0 {
		t.Fatalf("force sweep: evicted=%d err=%v", ev, err)
	}
	return map[string]*Harness{"memory": New(t), "durable": NewDurable(t), "tiered": tiered}
}

// TestBatchScanMatchesRowScanOnCorpus is the differential test of the
// batch read path over the engine-test corpus: on every stack, for random
// (partition, range, projection, pruner) triples of the event and
// application tables, ScanPartitionBatches yields exactly the rows and
// cells of ScanPartitionPruned, while every block buffer is poisoned as
// soon as its batch callback returns.
func TestBatchScanMatchesRowScanOnCorpus(t *testing.T) {
	persist.PoisonBatches.Store(true)
	defer persist.PoisonBatches.Store(false)
	cols := []uint32{model.ColSourceID, model.ColAmountID, model.ColRawID,
		store.InternColumn("attr.ost"), store.InternColumn(model.ColApp), store.InternColumn("never-written")}
	stacks := batchStacks(t)
	for name, h := range stacks {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			from, to := h.Window()
			for _, table := range []string{model.TableEventByTime, model.TableAppByTime} {
				pkeys, err := h.DB.PartitionKeys(context.Background(), table)
				if err != nil || len(pkeys) == 0 {
					t.Fatalf("partitions of %s: %v (%d)", table, err, len(pkeys))
				}
				for trial := 0; trial < 120; trial++ {
					pkey := pkeys[rng.Intn(len(pkeys))]
					var rg store.Range
					if rng.Intn(3) > 0 {
						rg.From = store.EncodeTS(from.Unix() + rng.Int63n(int64(to.Sub(from).Seconds())))
					}
					if rng.Intn(3) > 0 {
						rg.To = store.EncodeTS(from.Unix() + rng.Int63n(int64(to.Sub(from).Seconds())))
					}
					var project []uint32
					if rng.Intn(4) > 0 {
						project = []uint32{}
						for _, k := range rng.Perm(len(cols))[:rng.Intn(len(cols)+1)] {
							project = append(project, cols[k])
						}
					}
					var pruner store.Pruner
					if rng.Intn(2) == 0 {
						src := h.Corpus.Events[rng.Intn(len(h.Corpus.Events))].Source
						p, err := plan.Build(&plan.Select{Table: table, Partition: pkey,
							Where: plan.NewCmp(plan.NewColRef("source"), plan.OpEq, src)})
						if err != nil {
							t.Fatal(err)
						}
						pruner = p.Pruner
					}
					what := fmt.Sprintf("%s/%s range %+v projection %v pruned %v", table, pkey, rg, project, pruner != nil)
					it, err := h.DB.ScanPartitionPruned(table, pkey, rg, store.One, pruner, nil)
					if err != nil {
						t.Fatal(err)
					}
					var want bytes.Buffer
					for r, ok := it.Next(); ok; r, ok = it.Next() {
						renderRow(&want, r, project)
					}
					if err := it.Err(); err != nil {
						t.Fatal(err)
					}
					it.Close()
					var got bytes.Buffer
					err = h.DB.ScanPartitionBatches(context.Background(), table, pkey, rg, project, pruner, nil, func(b *store.Batch) error {
						for i := range b.Keys() {
							r := b.Row(i)
							for _, id := range project {
								if b.Col(id)[i] != r.ColID(id) {
									return fmt.Errorf("row %q: Col(%d) = %q, Row().ColID = %q", r.Key, id, b.Col(id)[i], r.ColID(id))
								}
							}
							renderRow(&got, r, project)
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("%s: batch scan differs from row scan\nbatch: %.300s\nrows:  %.300s", what, got.Bytes(), want.Bytes())
					}
				}
			}
			if st := h.DB.StorageStats(); st.ChainedScans == 0 {
				t.Fatalf("no scan took the chained path: %+v", st)
			}
		})
	}
	resident(t, stacks["memory"])
}

// renderRow appends the row's key, write timestamp and — cut to the
// projection's non-empty cells, when there is one — its cells.
func renderRow(w *bytes.Buffer, r store.Row, project []uint32) {
	fmt.Fprintf(w, "%s@%d", r.Key, r.WriteTS)
	for _, c := range r.Cols() {
		if project == nil || (slices.Contains(project, c.ID) && c.Value != "") {
			fmt.Fprintf(w, " %d=%q", c.ID, c.Value)
		}
	}
	w.WriteByte('\n')
}

// TestEngineCorpusUnderBatchPoison runs the whole corpus on the durable
// and the evicted stack with every block buffer scribbled over after each
// batch callback: a fold that kept a string aliasing a block — a word-count
// token, a distribution label, a GROUP BY value — would answer differently
// from the memtable-resident stack, which has no block buffers to poison.
func TestEngineCorpusUnderBatchPoison(t *testing.T) {
	persist.PoisonBatches.Store(true)
	defer persist.PoisonBatches.Store(false)
	stacks := batchStacks(t)
	mem := stacks["memory"]
	for _, c := range Cases(mem) {
		want, err := mem.Direct(c.Req)
		if err != nil {
			t.Fatalf("%s: in-memory execution: %v", c.Name, err)
		}
		for _, name := range []string{"durable", "tiered"} {
			t.Run(name+"/"+c.Name, func(t *testing.T) {
				if got := stacks[name].Run(t, c); !bytes.Equal(got, want) {
					t.Fatalf("poisoned %s result differs from in-memory:\nmem:      %.300s\npoisoned: %.300s",
						name, want, got)
				}
			})
		}
	}
	for _, name := range []string{"durable", "tiered"} {
		if st := stacks[name].DB.StorageStats(); st.ChainedScans == 0 {
			t.Fatalf("%s: the corpus never took the chained path: %+v", name, st)
		}
	}
	resident(t, mem)
}
