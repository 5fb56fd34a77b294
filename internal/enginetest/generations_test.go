package enginetest

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpclog/internal/objstore"
	"hpclog/internal/store"
)

// untar unpacks a gzipped tarball of regular files and directories.
func untar(t *testing.T, tarball, dst string) {
	t.Helper()
	f, err := os.Open(tarball)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(zr)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dst, hdr.Name)
		if !strings.HasPrefix(path, dst) {
			t.Fatalf("%s leaves %s", hdr.Name, dst)
		}
		switch hdr.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			var data []byte
			if data, err = io.ReadAll(tr); err == nil {
				err = os.WriteFile(path, data, 0o644)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// generations counts the segment files and footer stubs under root by the
// codec generation their header names.
func generations(t *testing.T, root string) map[string]int {
	t.Helper()
	out := make(map[string]int)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !(strings.HasSuffix(path, ".seg") || strings.HasSuffix(path, ".sft")) {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		head := make([]byte, 8)
		if _, err := io.ReadFull(f, head); err != nil {
			return err
		}
		out[string(head)+filepath.Ext(path)]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMixedCodecGenerations opens a store directory written at the last
// commit that wrote codec v6 — testdata/v6store.tar.gz: the engine corpus
// on two nodes in round files, the first half of its events loaded,
// flushed and evicted to a local-fs object store behind footer stubs and a
// TIER manifest, then every event loaded again — so each evicted segment
// is shadowed by a resident one holding the same keys — with the runs and
// the synopsis, and the synopsis rows once more in the commitlog — and
// asks it the whole corpus: as found, after the compaction that merges
// every two-segment partition into a v7 segment, after a forced tier sweep
// that evicts v6 and v7 segments alike, and after a restart. Every answer
// is, byte for byte, the memtable-resident harness's.
func TestMixedCodecGenerations(t *testing.T) {
	root := t.TempDir()
	untar(t, filepath.Join("testdata", "v6store.tar.gz"), root)
	storeDir, objDir := filepath.Join(root, "store"), filepath.Join(root, "objects")
	if g := generations(t, root); g["HPSEG006.seg"] == 0 || g["HPSEG006.sft"] == 0 || len(g) != 2 {
		t.Fatalf("the fixture should hold v6 segments and v6 stubs only: %v", g)
	}

	mem := New(t)
	h := attach(t, store.Config{
		Nodes: 2, RF: 1, VNodes: 32,
		FlushThreshold:  512,
		CompactInterval: -1,
		Dir:             storeDir,
		Tier:            objstore.Config{Backend: "fs", Dir: objDir, CacheBytes: 1 << 20},
	})
	st := h.DB.StorageStats()
	if st.ReplayedRows == 0 || st.TieredSegments == 0 || st.TieredSegments == st.DiskSegments {
		t.Fatalf("want commitlog rows replayed and some, not all, segments evicted: %+v", st)
	}

	cases := Cases(mem)
	want := make(map[string][]byte, len(cases))
	for _, c := range cases {
		res, err := mem.Direct(c.Req)
		if err != nil {
			t.Fatalf("%s in memory: %v", c.Name, err)
		}
		want[c.Name] = res
	}
	answer := func(stage string) {
		t.Helper()
		for _, c := range Cases(h) {
			t.Run(stage+"/"+c.Name, func(t *testing.T) {
				if got := h.Run(t, c); !bytes.Equal(got, want[c.Name]) {
					t.Fatalf("differs from in-memory:\nmem: %.300s\ngot: %.300s", want[c.Name], got)
				}
			})
		}
	}

	answer("v6")
	if h.DB.Tier().FetchedBlocks.Load() == 0 {
		t.Fatal("the corpus ran without fetching a block of an evicted v6 segment")
	}

	// Ordinary compaction is the upgrade: what it merges, it writes as v7,
	// and drops the v6 inputs, evicted ones included.
	merged, err := h.DB.Compact()
	if err != nil || merged == 0 {
		t.Fatalf("compacted %d partitions: %v", merged, err)
	}
	g := generations(t, root)
	if g["HPSEG007.seg"] == 0 || g["HPSEG006.seg"] == 0 || g["HPSEG006.sft"] != 0 {
		t.Fatalf("after compaction want v7 beside v6 segments and no v6 stub left: %v", g)
	}
	answer("compacted")

	up, ev, err := h.DB.TierSweep(true)
	if err != nil || up == 0 || ev == 0 {
		t.Fatalf("forced sweep: uploaded=%d evicted=%d: %v", up, ev, err)
	}
	if g = generations(t, storeDir); g["HPSEG006.sft"] == 0 || g["HPSEG007.sft"] == 0 || len(g) != 2 {
		t.Fatalf("after the sweep want stubs of both generations and nothing resident: %v", g)
	}
	answer("swept")

	h.Reopen(t)
	if st := h.DB.StorageStats(); st.TieredSegments != st.DiskSegments || st.DiskSegments == 0 {
		t.Fatalf("eviction lost across reopen: %d tiered of %d", st.TieredSegments, st.DiskSegments)
	}
	answer("reopened")
	if v := h.DB.Tier().VerifyFailures.Load(); v != 0 {
		t.Fatalf("%d tiered blocks failed verification", v)
	}
}
