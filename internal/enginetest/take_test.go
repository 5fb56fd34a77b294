package enginetest

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"hpclog/internal/model"
	"hpclog/internal/objstore"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// foldCases are the cases whose folds take blocks whole: the corpus's
// histogram and transfer-entropy ones, by time, and its heat map and
// distribution ones, by source — but for the distribution over
// applications, which takes none — with heat maps and distributions of the
// Lustre storm and the application aborts it causes. The corpus's MCE
// events are too sparse for a block to lie in one scan slice; the storm
// hour packs blocks into seconds, from sources the section dictionaries
// code.
func foldCases(h *Harness) (byTime, bySource []Case) {
	for _, c := range Cases(h) {
		switch {
		case c.Req.Op == query.OpHistogram || c.Req.Op == query.OpTE:
			byTime = append(byTime, c)
		case c.Req.Op == query.OpHeatmap || c.Req.Op == query.OpDistribution && c.Req.Level != "app":
			bySource = append(bySource, c)
		}
	}
	from, to := h.Window()
	for _, typ := range []model.EventType{model.Lustre, model.AppAbort} {
		qc := query.Context{EventType: string(typ), From: from.Unix(), To: to.Unix()}
		bySource = append(bySource,
			Case{Name: "heatmap_" + string(typ), Req: query.Request{Op: query.OpHeatmap, Context: qc}},
			Case{Name: "distribution_node_" + string(typ), Req: query.Request{Op: query.OpDistribution, Context: qc, Level: "node"}})
	}
	return byTime, bySource
}

// groupStatements are CQL statements of the planner's group rule, counts
// by source over the storm hour's Lustre events: whole, and summed over a
// key range that cuts blocks.
func groupStatements(h *Harness) []string {
	hour := h.Cfg.Storms[0].Start.Unix() / 3600
	lustre := model.EventByTimeKey(hour, model.Lustre)
	lo, hi := store.EncodeTS(hour*3600+601), store.EncodeTS(hour*3600+2999)
	return []string{
		"SELECT source, COUNT(*) FROM event_by_time WHERE partition = '" + lustre + "' GROUP BY source",
		"SELECT source, COUNT(*), SUM(amount) FROM event_by_time WHERE partition = '" + lustre +
			"' AND key >= '" + lo + "' AND key < '" + hi + "' GROUP BY source",
	}
}

// cqlRows runs a statement over the wire and returns its rows as JSON.
func cqlRows(t *testing.T, h *Harness, src string) []byte {
	t.Helper()
	res, err := h.Client.Session("").Execute(context.Background(), src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	b, err := json.Marshal(res.Rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// takenBy runs the fold cases and the group statements on h, holding each
// answer to want, and fails unless the cases by time, the cases by source
// and the statements each took blocks from their footers.
func takenBy(t *testing.T, h *Harness, stage string, want map[string][]byte) {
	t.Helper()
	timeCases, sourceCases := foldCases(h)
	// The direct path takes on SerialComp, the wire path on Comp.
	taken := func() int { return h.Comp.Stats().BlocksTaken + h.SerialComp.Stats().BlocksTaken }
	run := func(cases []Case) int {
		before := taken()
		for _, c := range cases {
			t.Run(stage+"/"+c.Name, func(t *testing.T) {
				if got := h.Run(t, c); !bytes.Equal(got, want[c.Name]) {
					t.Fatalf("differs from in-memory:\nmem: %.300s\ngot: %.300s", want[c.Name], got)
				}
			})
		}
		return taken() - before
	}
	byTime, bySource := run(timeCases), run(sourceCases)
	before := taken()
	for _, src := range groupStatements(h) {
		if got := cqlRows(t, h, src); !bytes.Equal(got, want[src]) {
			t.Fatalf("%s: %s differs from in-memory:\nmem: %.300s\ngot: %.300s", stage, src, want[src], got)
		}
	}
	byCQL := taken() - before
	t.Logf("%s: blocks taken by time %d, by source %d, by CQL %d", stage, byTime, bySource, byCQL)
	if byTime == 0 || bySource == 0 || byCQL == 0 {
		t.Errorf("%s: a class of folds took no block: %d by time, %d by source, %d by CQL", stage, byTime, bySource, byCQL)
	}
}

// TestCorpusFoldsTakeBlocks keeps the footer path of the count folds from
// switching off unseen: on the durable corpus the histogram and
// transfer-entropy cases take blocks from their footers, and so do the
// heat map and distribution cases and the CQL group rule, with answers
// equal to the memtable-resident harness's (which has no segment to take).
// So they do on the v8 store of testdata, whose footers carry group lists,
// and once compaction rewrote it as v9.
func TestCorpusFoldsTakeBlocks(t *testing.T) {
	mem := New(t)
	want := make(map[string][]byte)
	timeCases, sourceCases := foldCases(mem)
	for _, c := range append(timeCases, sourceCases...) {
		res, err := mem.Direct(c.Req)
		if err != nil {
			t.Fatalf("%s in memory: %v", c.Name, err)
		}
		want[c.Name] = res
	}
	for _, src := range groupStatements(mem) {
		want[src] = cqlRows(t, mem, src)
	}
	takenBy(t, NewDurable(t), "durable", want)

	root := t.TempDir()
	untar(t, filepath.Join("testdata", "v8store.tar.gz"), root)
	v8 := attach(t, store.Config{
		Nodes: 2, RF: 1, VNodes: 32,
		FlushThreshold:  512,
		CompactInterval: -1,
		Dir:             filepath.Join(root, "store"),
		Tier:            objstore.Config{Backend: "fs", Dir: filepath.Join(root, "objects"), CacheBytes: 1 << 20},
	})
	takenBy(t, v8, "v8", want)
	if merged, err := v8.DB.Compact(); err != nil || merged == 0 {
		t.Fatalf("compacted %d partitions: %v", merged, err)
	}
	takenBy(t, v8, "compacted", want)
}
