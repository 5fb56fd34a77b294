package persist

import (
	"context"
	"fmt"
	"testing"

	"hpclog/internal/objstore"
)

// ioDelta returns a function reporting the file fsyncs, directory fsyncs
// and manifest writes issued since ioDelta was called.
func ioDelta() func() (files, dirs, manifest int64) {
	f0, d0, m0 := objstore.IO.FileSyncs.Load(), objstore.IO.DirSyncs.Load(), objstore.IO.ManifestWrites.Load()
	return func() (int64, int64, int64) {
		return objstore.IO.FileSyncs.Load() - f0, objstore.IO.DirSyncs.Load() - d0, objstore.IO.ManifestWrites.Load() - m0
	}
}

// TestRoundSyncBudget pins what a round may cost: N segments share ONE
// directory fsync per barrier and a sweep batch ONE manifest write —
// where the per-segment path issued N of each.
func TestRoundSyncBudget(t *testing.T) {
	const n = 12
	dir, objDir := t.TempDir(), t.TempDir()
	s := openTiered(t, dir, newTestTier(t, objDir))
	defer s.Close()
	parts := func(gen int) []FlushPart {
		var ps []FlushPart
		for i := 0; i < n; i++ {
			ps = append(ps, FlushPart{"events", fmt.Sprintf("p%02d", i), testRows(80, int64(1+gen*1000))})
		}
		return ps
	}

	since := ioDelta()
	if err := s.FlushRound(parts(0)); err != nil {
		t.Fatal(err)
	}
	if f, d, _ := since(); f != n || d != 1 {
		t.Fatalf("flush round of %d segments: %d file fsyncs, %d directory fsyncs; want %d and 1", n, f, d, n)
	}
	if st := s.Stats(); st.Flushes != n || st.FlushRounds != 1 {
		t.Fatalf("flushes=%d rounds=%d, want %d and 1", st.Flushes, st.FlushRounds, n)
	}

	// Sweep: n objects + n stubs + the manifest; one barrier each for the
	// object directory, the manifest's first snapshot and the stubs.
	since = ioDelta()
	up, ev, err := s.TierSweep(context.Background(), true)
	if err != nil || up != n || ev != n {
		t.Fatalf("sweep: uploaded=%d evicted=%d err=%v", up, ev, err)
	}
	if f, d, m := since(); m != 1 || d != 3 || f != 2*n+1 {
		t.Fatalf("sweep batch of %d segments: %d manifest writes, %d directory fsyncs, %d file fsyncs; want 1, 3, %d", n, m, d, f, 2*n+1)
	}

	// A second generation makes every partition compactable; the round
	// that merges them all costs one barrier and one manifest write (a
	// snapshot, hence a second directory fsync: the removes leave nothing
	// live in the log).
	if err := s.FlushRound(parts(1)); err != nil {
		t.Fatal(err)
	}
	since = ioDelta()
	merged, err := s.CompactOverflow(1)
	if err != nil || merged != n {
		t.Fatalf("compacted %d partitions (err=%v), want %d", merged, err, n)
	}
	if f, d, m := since(); d != 2 || m != 1 || f != n+1 {
		t.Fatalf("compaction round of %d partitions: %d directory fsyncs, %d manifest writes, %d file fsyncs; want 2, 1, %d", n, d, m, f, n+1)
	}
}
