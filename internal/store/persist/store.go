package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpclog/internal/fsys"
	"hpclog/internal/objstore"
	"hpclog/internal/obs"
)

// Store manages the immutable segments of one storage node: flushes
// append new segments, reads snapshot the per-partition segment list, and
// compaction merges a partition's segments into one with last-write-wins
// semantics. Segments live in round files (round.go) named <seq>.seg with
// a node-wide sequence; the footer identifies the table and partition, so
// no escaping of partition keys into filenames is ever needed.
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
	FlushRounds       int64 // flush rounds (one durability barrier and one data file each)
	FlushedRows       int64
	Compactions       int64
	CompactedSegments int64
	CompactedRows     int64
	Segments          int64
	Files             int64 // data files and footer stubs holding them
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
	if err := fsys.OS.MkdirAll(dir, 0o755); err != nil {
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
	local, dead, err := s.openFiles()
	if err != nil {
		return nil, err
	}
	if s.tier != nil {
		if err := s.reconcileTier(local, dead); err != nil {
			return nil, err
		}
	}
	for _, list := range s.segs {
		sort.Slice(list, func(i, j int) bool { return list[i].Seq() < list[j].Seq() })
	}
	return s, nil
}

// openFiles opens every data file and registers its live sections: those
// no dead mark of any data file or stub names (dead). A seq live in two
// files means a compaction round copied a file's live sections into its
// own and crashed before unlinking it: the older file, wholly replaced,
// is removed, as is a file with no live section.
func (s *Store) openFiles() (local map[uint64]*Segment, dead map[uint64]bool, err error) {
	entries, err := fsys.OS.ReadDir(s.dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*dataFile
	dead = make(map[uint64]bool)
	for _, e := range entries {
		name, path := e.Name(), filepath.Join(s.dir, e.Name())
		var marks []uint64
		switch {
		case strings.HasSuffix(name, fsys.TempExt):
			// Leftover of a round cut short by a crash; its rows are still
			// in the commitlog or its inputs, so it is just garbage.
			fsys.OS.Remove(path)
		case strings.HasSuffix(name, segStubExt):
			_, marks, err = readIndex(path)
		case strings.HasSuffix(name, segFileExt):
			var df *dataFile
			if df, marks, err = openFile(path); err == nil {
				files = append(files, df)
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("persist: open %s: %w", name, err)
		}
		for _, seq := range marks {
			dead[seq] = true
			s.nextSeq = max(s.nextSeq, seq+1)
		}
	}
	owner, gone := make(map[uint64]*dataFile), make(map[*dataFile]bool) // files come oldest round first, by name
	for _, df := range files {
		all := df.segs
		df.segs = nil
		for _, seg := range all {
			if dead[seg.Seq()] {
				df.dead = append(df.dead, section{seg.Seq(), seg.base, seg.size})
				continue
			}
			df.segs = append(df.segs, seg)
			if prev := owner[seg.Seq()]; prev != nil {
				gone[prev] = true
			}
			owner[seg.Seq()] = df
		}
	}
	local = make(map[uint64]*Segment)
	for _, df := range files {
		if gone[df] || len(df.segs) == 0 {
			df.f.Close()
			df.unlink()
			continue
		}
		df.own(df.segs, df.size)
		for _, seg := range df.segs {
			k := segKey{seg.Table(), seg.Partition()}
			s.segs[k] = append(s.segs[k], seg)
			local[seg.Seq()] = seg
			s.nextSeq = max(s.nextSeq, seg.Seq()+1)
		}
	}
	return local, dead, nil
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
func (s *Store) newWriter(table, pkey string, seq uint64) *Writer {
	w := NewWriter(table, pkey, seq)
	if s.zoneCols != nil {
		w.setZoneColumnNames(s.zoneCols)
	}
	return w
}

// tablesManifest is the durable table catalog: one table name per line.
// Commitlog create-table records alone cannot survive a checkpoint — a
// table with no rows has no segment footers and its WAL segment gets
// truncated — so table creation also lands here, written atomically.
const tablesManifest = "TABLES"

func (s *Store) loadTables() error {
	data, err := fsys.ReadFile(filepath.Join(s.dir, tablesManifest))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
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
	if err := fsys.WriteTemp(path, []byte(strings.Join(names, "\n")+"\n")); err != nil {
		return err
	}
	if err := fsys.Commit([]string{path}, nil); err != nil {
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

// FlushRound writes every part (none empty) as a segment of one new data
// file and registers them all, with one durability barrier for the round.
// On error nothing was registered and the caller still owns every row.
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

	rf, err := createRound(s.segPath(first))
	if err != nil {
		return err
	}
	segs := make([]*Segment, n)
	err = fsys.Parallel(n, roundWorkers, func(i int) (err error) {
		p := parts[i]
		w := s.newWriter(p.Table, p.PKey, first+uint64(i))
		for _, r := range p.Rows {
			if err := w.Append(r); err != nil {
				w.Abort()
				return err
			}
		}
		segs[i], err = w.writeTo(rf)
		return err
	})
	if err := rf.finish(segs, nil, err); err != nil {
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
	roundHook("published", []string{rf.path})
	return nil
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
// serialize compactions and tier sweeps per store.
func (s *Store) CompactPartition(table, pkey string, threshold int) (bool, error) {
	n, err := s.compactRound([]segKey{{table, pkey}}, threshold)
	return n > 0, err
}

// compactBatch bounds the partitions of one compaction round, and with
// them the merged segments a round holds beside their inputs until its
// barrier.
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
}

// compactRound merges each listed partition that still overflows
// threshold into one segment, with one durability barrier for the round:
// the merged segments replace their inputs, and the inputs' object-store
// copies are dropped, only after every output is durable. Concurrent
// flushes are safe: segments registered after a partition's snapshot is
// taken are preserved behind its merged segment. Compactions and tier
// sweeps must be serialized per store.
//
// A retired input stays on disk as a dead section of its data file, and
// the round's file marks it dead (round.go). A file is reclaimed — its
// live sections copied, byte for byte, into the round's file, and the file
// unlinked — once its dead sections hold a third of its bytes, so copying
// never outgrows twice what compaction retired and no file holds more
// dead bytes than half its live ones.
//
// A merge that fails (an unreadable input) drops out alone and leaves its
// partition as it was; a failed copy or write fails the round. A failed
// drop of the retired segments' manifest entries is reported and stops
// nothing. Their objects go with their last reader (dataFile.retire).
func (s *Store) compactRound(keys []segKey, threshold int) (int, error) {
	defer hooked()()
	start := time.Now()
	s.mu.Lock()
	var merges []*merge
	for _, k := range keys {
		if list := s.segs[k]; len(list) > 1 && len(list) > threshold {
			merges = append(merges, &merge{key: k, old: slices.Clone(list)})
		}
	}
	dirty := s.dirtyFiles()
	first := s.nextSeq
	s.nextSeq += uint64(len(merges))
	s.mu.Unlock()
	if len(merges) == 0 {
		return 0, nil
	}

	rf, err := createRound(s.segPath(first))
	if err != nil {
		return 0, err
	}
	outs, failed := make([]*Segment, len(merges)), make([]error, len(merges))
	err = fsys.Parallel(len(merges), roundWorkers, func(i int) (err error) {
		outs[i], failed[i], err = s.mergeSegments(rf, merges[i], first+uint64(i))
		return err
	})
	n, retired, marks := 0, make(map[*Segment]bool), []uint64(nil)
	touched := make(map[*dataFile]bool) // the resident files holding an input
	for i, m := range merges {
		if failed[i] != nil {
			continue
		}
		merges[n], outs[n], n = m, outs[i], n+1
		for _, o := range m.old {
			retired[o], marks = true, append(marks, o.Seq())
			if !o.Tiered() {
				touched[o.file] = true
			}
		}
	}
	merges, outs = merges[:n], outs[:n]
	var moves []*Segment
	var gone, kept []*dataFile
	for df := range touched {
		var survivors []*Segment
		var dead, live int64
		for _, sc := range df.dead {
			dead += sc.len
		}
		for _, seg := range df.segs {
			if retired[seg] {
				dead += seg.size
			} else {
				survivors, live = append(survivors, seg), live+seg.size
			}
		}
		if 2*dead >= live {
			moves, gone = append(moves, survivors...), append(gone, df)
		} else {
			kept = append(kept, df)
		}
	}
	if err == nil {
		outs = append(outs, make([]*Segment, len(moves))...)
		err = fsys.Parallel(len(moves), roundWorkers, func(j int) (err error) {
			outs[n+j], err = rf.copySection(moves[j])
			return err
		})
	}
	if err == nil && len(outs) == 0 {
		err = errors.New("persist: every merge of the compaction round failed")
	}
	if err := rf.finish(outs, deadMarks(dirty, marks), err); err != nil {
		return 0, errors.Join(append(failed, err)...)
	}

	s.mu.Lock()
	for i, m := range merges {
		// cur = old ++ segments flushed during the merge; keep the new ones.
		tail := s.segs[m.key][len(m.old):]
		s.segs[m.key] = append([]*Segment{outs[i]}, tail...)
	}
	for j, o := range moves {
		list := s.segs[segKey{o.Table(), o.Partition()}]
		list[slices.Index(list, o)] = outs[n+j]
	}
	for _, df := range kept {
		df.segs = slices.DeleteFunc(df.segs, func(seg *Segment) bool {
			if retired[seg] {
				df.dead = append(df.dead, section{seg.Seq(), seg.base, seg.size})
			}
			return retired[seg]
		})
	}
	s.mu.Unlock()
	replaced := moves
	for _, m := range merges {
		replaced = append(replaced, m.old...)
		s.compactedSegments.Add(int64(len(m.old)))
		s.compactedRows.Add(int64(m.rows))
	}
	for _, o := range replaced {
		o.Close()
	}
	// Drop the object-store copies before unlinking local state so the
	// manifest never points at a segment the store no longer tracks.
	dropErr := s.dropTiered(replaced)
	for _, df := range gone {
		df.unlink()
	}
	s.compactions.Add(int64(len(merges)))
	s.CompactRoundHist.Record(time.Since(start))
	roundHook("published", []string{rf.path})
	return len(merges), errors.Join(append(failed, dropErr)...)
}

// dirtyFiles returns the resident data files holding a dead section. The
// caller holds s.mu.
func (s *Store) dirtyFiles() []*dataFile {
	var out []*dataFile
	seen := make(map[*dataFile]bool)
	for _, list := range s.segs {
		for _, seg := range list {
			if df := seg.file; len(df.dead) > 0 && !seen[df] && !seg.Tiered() {
				seen[df] = true
				out = append(out, df)
			}
		}
	}
	return out
}

// deadMarks returns the seqs of the dead sections of files, and more,
// sorted and distinct: the dead marks of a file the caller writes.
func deadMarks(files []*dataFile, more []uint64) []uint64 {
	for _, df := range files {
		for _, sc := range df.dead {
			more = append(more, sc.seq)
		}
	}
	slices.Sort(more)
	return slices.Compact(more)
}

// mergeSegments streams the last-write-wins merge of m.old into the round
// file as segment seq. A failure to read the inputs is mergeErr, and
// leaves the file as it was; one to write the file is err.
func (s *Store) mergeSegments(rf *dataFile, m *merge, seq uint64) (out *Segment, mergeErr, err error) {
	its := make([]Iterator, 0, len(m.old))
	for _, seg := range m.old {
		it, err := seg.Scan(Range{})
		if err != nil {
			for _, open := range its {
				open.Close()
			}
			return nil, err, nil
		}
		its = append(its, it)
	}
	merged := MergeIters(its)
	defer merged.Close()
	w := s.newWriter(m.key.table, m.key.pkey, seq)
	for {
		r, ok := merged.Next()
		if !ok {
			break
		}
		if err := w.Append(r); err != nil {
			w.Abort()
			return nil, err, nil
		}
		m.rows++
	}
	if err := merged.Err(); err != nil {
		w.Abort()
		return nil, err, nil
	}
	out, err = w.writeTo(rf)
	return out, nil, err
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
	files := make(map[any]bool) // a resident segment's data file, a tiered one's object
	s.mu.RLock()
	for _, list := range s.segs {
		st.Segments += int64(len(list))
		for _, seg := range list {
			st.Bytes += seg.Size()
			if seg.Tiered() {
				st.TieredSegments++
				st.TieredBytes += seg.Size()
				files[seg.TierKey()] = true
			} else {
				files[seg.file] = true
			}
		}
	}
	s.mu.RUnlock()
	st.Files = int64(len(files))
	return st
}

// Close lets go of every open data file.
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
