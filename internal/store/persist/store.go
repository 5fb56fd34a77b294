package persist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpclog/internal/objstore"
	"hpclog/internal/obs"
)

// Store manages the immutable segment files of one storage node: flushes
// append new segments, reads snapshot the per-partition segment list, and
// compaction merges a partition's segments into one with last-write-wins
// semantics. Files are named <seq>.seg with a node-wide sequence; the
// footer identifies the table and partition, so no escaping of partition
// keys into filenames is ever needed.
type Store struct {
	dir string
	// zoneCols, when non-nil, replaces DefaultZoneColumns as the hot set
	// receiving per-block zone maps in newly written segments.
	zoneCols []string

	// tier/manifest/tierPrefix are set when the store was opened with an
	// object-store tier attached (OpenStoreTiered); nil tier means every
	// segment stays resident and TierSweep is a no-op.
	tier       *objstore.Tier
	manifest   *objstore.Manifest
	tierPrefix string

	mu      sync.RWMutex // read-locked by the accessors every scan task goes through
	nextSeq uint64
	segs    map[segKey][]*Segment // ordered by Seq, oldest first
	tables  map[string]bool       // durable table catalog (tables manifest)

	// FlushRoundHist, CompactRoundHist and SweepHist record the duration of
	// every flush round, compaction round and tier sweep of this node.
	FlushRoundHist, CompactRoundHist, SweepHist obs.Hist

	flushes           atomic.Int64
	flushRounds       atomic.Int64
	flushedRows       atomic.Int64
	compactions       atomic.Int64
	compactedSegments atomic.Int64
	compactedRows     atomic.Int64
}

type segKey struct{ table, pkey string }

// Stats is a snapshot of the store's counters and current on-disk state.
type Stats struct {
	Flushes           int64 // segments written by flush rounds
	FlushRounds       int64 // flush rounds (one durability barrier each)
	FlushedRows       int64
	Compactions       int64
	CompactedSegments int64
	CompactedRows     int64
	Segments          int64
	Bytes             int64
	// TieredSegments/TieredBytes count segments whose data file has been
	// evicted to the object store (bytes are the logical object sizes).
	TieredSegments int64
	TieredBytes    int64
}

// OpenStore opens (creating if needed) the segment directory and loads
// every segment file's footer. If a previous run evicted segments to an
// object store, opening without the tier fails with ErrTierRequired —
// use OpenStoreTiered.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreTiered(dir, nil)
}

// OpenStoreTiered opens the segment directory with an object-store tier
// attached: the tier manifest is replayed so evicted segments come back
// as footer stubs (rebuilt from the object store when the disk is
// fresh), local files that were uploaded but not yet evicted are
// re-adopted, and orphan stubs from interrupted retires are swept.
func OpenStoreTiered(dir string, ts *TierSetup) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, segs: make(map[segKey][]*Segment), tables: make(map[string]bool)}
	if ts != nil {
		if ts.Tier == nil {
			return nil, fmt.Errorf("persist: tier setup without a tier")
		}
		s.tier = ts.Tier
		s.tierPrefix = ts.Prefix
		if s.tierPrefix == "" {
			s.tierPrefix = "node"
		}
	}
	m, err := objstore.LoadManifest(filepath.Join(dir, tierManifestName))
	if err != nil {
		return nil, err
	}
	if s.tier == nil && m.Len() > 0 {
		return nil, ErrTierRequired
	}
	s.manifest = m
	if err := s.loadTables(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, segTempExt) {
			// Leftover of a flush cut short by a crash; the rows are still
			// in the commitlog, so the partial file is just garbage.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, segFileExt) {
			continue
		}
		seg, err := OpenSegment(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("persist: open %s: %w", name, err)
		}
		k := segKey{seg.Table(), seg.Partition()}
		s.segs[k] = append(s.segs[k], seg)
		if seg.Seq() >= s.nextSeq {
			s.nextSeq = seg.Seq() + 1
		}
	}
	if s.tier != nil {
		if err := s.reconcileTier(); err != nil {
			return nil, err
		}
	}
	for _, list := range s.segs {
		sort.Slice(list, func(i, j int) bool { return list[i].Seq() < list[j].Seq() })
	}
	return s, nil
}

func (s *Store) segPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%020d%s", seq, segFileExt))
}

// SetZoneColumns configures the hot set of columns that get per-block
// zone maps in segments written by this store (flushes and compactions).
// Call before writes begin; existing segments are unaffected.
func (s *Store) SetZoneColumns(names []string) {
	s.zoneCols = names
}

// newWriter creates a segment writer honoring the store's zone-column
// configuration.
func (s *Store) newWriter(path, table, pkey string, seq uint64) (*Writer, error) {
	w, err := NewWriter(path, table, pkey, seq)
	if err != nil {
		return nil, err
	}
	if s.zoneCols != nil {
		if err := w.SetZoneColumns(s.zoneCols); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w, nil
}

// tablesManifest is the durable table catalog: one table name per line.
// Commitlog create-table records alone cannot survive a checkpoint — a
// table with no rows has no segment footers and its WAL segment gets
// truncated — so table creation also lands here, written atomically.
const tablesManifest = "TABLES"

func (s *Store) loadTables() error {
	data, err := os.ReadFile(filepath.Join(s.dir, tablesManifest))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, name := range strings.Split(string(data), "\n") {
		if name != "" {
			s.tables[name] = true
		}
	}
	return nil
}

// AddTable durably records a table in the manifest. Idempotent.
func (s *Store) AddTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tables[name] {
		return nil
	}
	names := make([]string, 0, len(s.tables)+1)
	for t := range s.tables {
		names = append(names, t)
	}
	names = append(names, name)
	sort.Strings(names)
	path := filepath.Join(s.dir, tablesManifest)
	if err := os.WriteFile(path+segTempExt, []byte(strings.Join(names, "\n")+"\n"), 0o644); err != nil {
		os.Remove(path + segTempExt)
		return err
	}
	if err := objstore.Commit([]string{path}, nil); err != nil {
		return err
	}
	s.tables[name] = true
	return nil
}

// Tables returns the manifest's table names, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for t := range s.tables {
		names = append(names, t)
	}
	sort.Strings(names)
	return names
}

// FlushPart is one partition's share of a flush round: rows sorted by
// unique clustering key, destined to become one segment.
type FlushPart struct {
	Table, PKey string
	Rows        []Row
}

// Flush writes rows as a new immutable segment of the partition — a
// flush round of one.
func (s *Store) Flush(table, pkey string, rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	return s.FlushRound([]FlushPart{{table, pkey, rows}})
}

// FlushRound writes every part (none empty) as a new immutable segment
// and registers them all, with one durability barrier for the round. On
// error nothing was registered and the caller still owns every row.
func (s *Store) FlushRound(parts []FlushPart) error {
	n := len(parts)
	if n == 0 {
		return nil
	}
	defer hooked()()
	start := time.Now()
	s.mu.Lock()
	first := s.nextSeq
	s.nextSeq += uint64(n)
	s.mu.Unlock()

	paths := make([]string, n)
	for i := range paths {
		paths[i] = s.segPath(first + uint64(i))
	}
	writers := make([]*Writer, n)
	err := objstore.Parallel(n, roundWorkers, func(i int) error {
		p := parts[i]
		w, err := s.newWriter(paths[i], p.Table, p.PKey, first+uint64(i))
		if err != nil {
			return err
		}
		for _, r := range p.Rows {
			if err := w.Append(r); err != nil {
				w.Abort()
				return err
			}
		}
		writers[i] = w
		return w.seal()
	})
	if err != nil {
		objstore.Discard(paths)
		return err
	}
	if err := commitRound(paths); err != nil {
		return err
	}
	segs, err := openSealed(writers)
	if err != nil {
		return err
	}
	s.mu.Lock()
	for i, seg := range segs {
		k := segKey{parts[i].Table, parts[i].PKey}
		s.segs[k] = append(s.segs[k], seg)
	}
	s.mu.Unlock()
	for _, p := range parts {
		s.flushedRows.Add(int64(len(p.Rows)))
	}
	s.flushes.Add(int64(n))
	s.flushRounds.Add(1)
	s.FlushRoundHist.Record(time.Since(start))
	roundHook("published", paths)
	return nil
}

// openSealed opens the committed files of a round as segments, each from
// the footer its sealed writer still holds.
func openSealed(writers []*Writer) ([]*Segment, error) {
	segs := make([]*Segment, len(writers))
	for i, w := range writers {
		seg, err := w.open()
		if err != nil {
			for _, open := range segs[:i] {
				open.Close()
			}
			return nil, err
		}
		segs[i] = seg
	}
	return segs, nil
}

// Segments returns the partition's segment list, oldest first. The slice
// is a copy; the segments themselves are shared and immutable.
func (s *Store) Segments(table, pkey string) []*Segment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	list := s.segs[segKey{table, pkey}]
	out := make([]*Segment, len(list))
	copy(out, list)
	return out
}

// Partitions returns every (table, partition) with at least one segment,
// as table -> sorted partition keys. Used by recovery to materialize
// partitions that exist only on disk.
func (s *Store) Partitions() map[string][]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]string)
	for k := range s.segs {
		out[k.table] = append(out[k.table], k.pkey)
	}
	for _, keys := range out {
		sort.Strings(keys)
	}
	return out
}

// MaxWriteTS returns the largest logical write timestamp across all
// segments — recovery seeds the store's timestamp counter with it so
// post-restart writes keep winning last-write-wins.
func (s *Store) MaxWriteTS() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var max int64
	for _, list := range s.segs {
		for _, seg := range list {
			if ts := seg.MaxWriteTS(); ts > max {
				max = ts
			}
		}
	}
	return max
}

// CompactPartition merges the partition's current segments into one when
// it has more than threshold of them (threshold <= 1 forces a merge of any
// multi-segment partition) — a compaction round of one. Callers must
// serialize compaction calls per store.
func (s *Store) CompactPartition(table, pkey string, threshold int) (bool, error) {
	n, err := s.compactRound([]segKey{{table, pkey}}, threshold)
	return n > 0, err
}

// compactBatch bounds the partitions of one compaction round, and with it
// the disk space that holds inputs and outputs side by side until the
// round's barrier.
const compactBatch = 256

// CompactOverflow compacts, in rounds of compactBatch, every partition
// whose segment count exceeds threshold, returning the number of
// partitions compacted. A failed round is reported in the joined error
// and does not stop the next.
func (s *Store) CompactOverflow(threshold int) (int, error) {
	s.mu.RLock()
	var keys []segKey
	for k, list := range s.segs {
		if len(list) > threshold && len(list) > 1 {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	total := 0
	var errs []error
	for len(keys) > 0 {
		n := min(compactBatch, len(keys))
		c, err := s.compactRound(keys[:n], threshold)
		total, keys, errs = total+c, keys[n:], append(errs, err)
	}
	return total, errors.Join(errs...)
}

// merge is one partition's share of a compaction round.
type merge struct {
	key  segKey
	old  []*Segment
	rows int
	w    *Writer // sealed output
}

// compactRound merges each listed partition that still overflows
// threshold into one segment, with one durability barrier for the round:
// the merged segments replace their inputs, and the inputs' object-store
// copies and local files are dropped, only after every output is durable.
// Concurrent flushes are safe: segments registered after a partition's
// snapshot is taken are preserved behind its merged segment. A partition
// whose merge fails is left as it was and reported in the joined error; a
// failed drop of a retired segment's object copy is reported the same way
// and stops nothing.
func (s *Store) compactRound(keys []segKey, threshold int) (int, error) {
	defer hooked()()
	start := time.Now()
	s.mu.Lock()
	var merges []*merge
	for _, k := range keys {
		if list := s.segs[k]; len(list) > 1 && len(list) > threshold {
			merges = append(merges, &merge{key: k, old: append([]*Segment(nil), list...)})
		}
	}
	first := s.nextSeq
	s.nextSeq += uint64(len(merges))
	s.mu.Unlock()
	if len(merges) == 0 {
		return 0, nil
	}

	// Merge on the worker pool; a failed merge drops out of the round.
	errs := make([]error, len(merges))
	objstore.Parallel(len(merges), roundWorkers, func(i int) error {
		errs[i] = s.mergeSegments(merges[i], first+uint64(i))
		return nil
	})
	n := 0
	var paths []string
	for i, m := range merges {
		if errs[i] == nil {
			merges[n] = m
			paths = append(paths, s.segPath(first+uint64(i)))
			n++
		}
	}
	merges = merges[:n]
	mergeErr := errors.Join(errs...)
	if n == 0 {
		return 0, mergeErr
	}
	if err := commitRound(paths); err != nil {
		return 0, errors.Join(mergeErr, err)
	}
	writers := make([]*Writer, n)
	for i, m := range merges {
		writers[i] = m.w
	}
	segs, err := openSealed(writers)
	if err != nil {
		return 0, errors.Join(mergeErr, err)
	}

	s.mu.Lock()
	for i, m := range merges {
		// cur = old ++ segments flushed during the merge; keep the new ones.
		tail := s.segs[m.key][len(m.old):]
		s.segs[m.key] = append([]*Segment{segs[i]}, tail...)
	}
	s.mu.Unlock()
	var retired []*Segment
	for _, m := range merges {
		retired = append(retired, m.old...)
		s.compactedSegments.Add(int64(len(m.old)))
		s.compactedRows.Add(int64(m.rows))
	}
	// Drop the object-store copies before unlinking local state so the
	// manifest never points at a segment the store no longer tracks.
	dropErr := s.dropTiered(context.Background(), retired)
	for _, o := range retired {
		o.retire()
	}
	s.compactions.Add(int64(n))
	s.CompactRoundHist.Record(time.Since(start))
	roundHook("published", paths)
	return n, errors.Join(mergeErr, dropErr)
}

// mergeSegments streams the last-write-wins merge of m.old into a sealed,
// uncommitted segment file.
func (s *Store) mergeSegments(m *merge, seq uint64) error {
	its := make([]Iterator, 0, len(m.old))
	for _, seg := range m.old {
		it, err := seg.Scan(Range{})
		if err != nil {
			for _, open := range its {
				open.Close()
			}
			return err
		}
		its = append(its, it)
	}
	merged := MergeIters(its)
	defer merged.Close()
	w, err := s.newWriter(s.segPath(seq), m.key.table, m.key.pkey, seq)
	if err != nil {
		return err
	}
	for {
		r, ok := merged.Next()
		if !ok {
			break
		}
		if err := w.Append(r); err != nil {
			w.Abort()
			return err
		}
		m.rows++
	}
	if err := merged.Err(); err != nil {
		w.Abort()
		return err
	}
	m.w = w
	return w.seal()
}

// Stats returns a snapshot of counters plus the live segment totals.
func (s *Store) Stats() Stats {
	st := Stats{
		Flushes:           s.flushes.Load(),
		FlushRounds:       s.flushRounds.Load(),
		FlushedRows:       s.flushedRows.Load(),
		Compactions:       s.compactions.Load(),
		CompactedSegments: s.compactedSegments.Load(),
		CompactedRows:     s.compactedRows.Load(),
	}
	s.mu.RLock()
	for _, list := range s.segs {
		st.Segments += int64(len(list))
		for _, seg := range list {
			st.Bytes += seg.Size()
			if seg.Tiered() {
				st.TieredSegments++
				st.TieredBytes += seg.Size()
			}
		}
	}
	s.mu.RUnlock()
	return st
}

// Close closes every open segment descriptor.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, list := range s.segs {
		for _, seg := range list {
			if err := seg.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
