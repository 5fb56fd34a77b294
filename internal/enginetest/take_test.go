package enginetest

import (
	"bytes"
	"path/filepath"
	"testing"

	"hpclog/internal/objstore"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// foldCases are the corpus cases whose folds take blocks whole: the
// histogram and transfer-entropy ones.
func foldCases(h *Harness) []Case {
	var out []Case
	for _, c := range Cases(h) {
		if c.Req.Op == query.OpHistogram || c.Req.Op == query.OpTE {
			out = append(out, c)
		}
	}
	return out
}

// takenBy runs the fold cases on h, holding each answer to want, and
// returns how many blocks they took from their footers.
func takenBy(t *testing.T, h *Harness, stage string, want map[string][]byte) int {
	t.Helper()
	before := h.Comp.Stats().BlocksTaken
	for _, c := range foldCases(h) {
		t.Run(stage+"/"+c.Name, func(t *testing.T) {
			if got := h.Run(t, c); !bytes.Equal(got, want[c.Name]) {
				t.Fatalf("differs from in-memory:\nmem: %.300s\ngot: %.300s", want[c.Name], got)
			}
		})
	}
	n := h.Comp.Stats().BlocksTaken - before
	t.Logf("%s: %d blocks taken", stage, n)
	return n
}

// TestCorpusFoldsTakeBlocks keeps the footer path of the count folds from
// switching off unseen: on the durable corpus the histogram and
// transfer-entropy cases take blocks from their footers, with answers equal
// to the in-memory harness's (which has no segment to take) — and so they
// do on the v6 store of testdata, whose footers carry the fold section
// too, as found and once compaction rewrote it as v7.
func TestCorpusFoldsTakeBlocks(t *testing.T) {
	mem := New(t)
	want := make(map[string][]byte)
	for _, c := range foldCases(mem) {
		res, err := mem.Direct(c.Req)
		if err != nil {
			t.Fatalf("%s in memory: %v", c.Name, err)
		}
		want[c.Name] = res
	}

	if n := takenBy(t, NewDurable(t), "durable", want); n == 0 {
		t.Error("the durable corpus's folds took no block")
	}

	root := t.TempDir()
	untar(t, filepath.Join("testdata", "v6store.tar.gz"), root)
	v6 := attach(t, store.Config{
		Nodes: 2, RF: 1, VNodes: 32,
		FlushThreshold:  512,
		CompactInterval: -1,
		Dir:             filepath.Join(root, "store"),
		Tier:            objstore.Config{Backend: "fs", Dir: filepath.Join(root, "objects"), CacheBytes: 1 << 20},
	})
	if n := takenBy(t, v6, "v6", want); n == 0 {
		t.Error("no block of the v6 store taken")
	}
	if merged, err := v6.DB.Compact(); err != nil || merged == 0 {
		t.Fatalf("compacted %d partitions: %v", merged, err)
	}
	if n := takenBy(t, v6, "compacted", want); n == 0 {
		t.Error("no block taken after compaction rewrote the v6 store as v7")
	}
}
