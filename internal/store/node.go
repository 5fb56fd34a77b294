package store

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hpclog/internal/objstore"
	"hpclog/internal/obs"
	"hpclog/internal/store/persist"
	"hpclog/internal/wal"
)

// partition is the per-node state of one partition: a mutable memtable of
// recently written rows; its flushed immutable segments live in the
// node's segment store.
type partition struct {
	mu    sync.RWMutex
	node  *Node
	table string
	key   string
	mem   []Row // sorted by clustering key
	// flushing is the memtable a node flush round has taken over: an
	// immutable run, still read like the memtable, until the round's
	// barrier has passed and its segment is published. Writers meanwhile
	// fill a fresh mem.
	flushing []Row
	// dirtySeg is the minimum commitlog segment across all records whose
	// rows are still only in the memtable; the commitlog may not be
	// truncated at or past it. It must be the minimum, not the first
	// observed: a WAL rotation between two concurrent appends can hand the
	// writer of the older segment the partition lock second. Valid while
	// hasDirty.
	dirtySeg uint64
	hasDirty bool
	// flushingSeg is dirtySeg's counterpart for the flushing run. Valid
	// while flushing != nil and hasFlushingSeg.
	flushingSeg    uint64
	hasFlushingSeg bool
}

// noteDirty lowers dirtySeg to cover commitlog segment seg.
func (p *partition) noteDirty(seg uint64) {
	if !p.hasDirty || seg < p.dirtySeg {
		p.dirtySeg, p.hasDirty = seg, true
	}
}

// put folds one batch into the sorted memtable as a unit. A batch that
// arrives in key order and past the memtable's last key — a time-series
// writer — is appended. Any other batch is merged last-write-wins (the
// later row winning a WriteTS tie) over the memtable's tail from the
// batch's first key on, after a stable sort on a copy when it was out of
// order: the caller's slice is shared with the other replicas. Either way
// a batch crosses the flush threshold at most once, so a partition-sized
// batch leaves as one segment.
func (p *partition) put(rows []Row, walSeg uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(rows) > 0 {
		mem, ok := appendSorted(slices.Grow(p.mem, len(rows)), rows)
		if ok {
			p.node.appendPuts.Add(1)
		} else {
			byKey := func(a, b Row) int { return strings.Compare(a.Key, b.Key) }
			if !slices.IsSortedFunc(rows, byKey) {
				rows = slices.Clone(rows)
				slices.SortStableFunc(rows, byKey)
			}
			tail := sort.Search(len(mem), func(i int) bool { return mem[i].Key >= rows[0].Key })
			mem = append(mem[:tail], mergeRows(mem[tail:], rows)...)
			p.node.mergePuts.Add(1)
		}
		p.mem = mem
	}
	if walSeg != 0 && len(p.mem) > 0 {
		p.noteDirty(walSeg)
	}
	// While a node flush round holds this partition's older rows under a
	// lower sequence number, flushing mem past it would publish the two
	// segments out of order: the next put retries.
	if len(p.mem) >= p.node.flushThreshold && p.flushing == nil {
		return p.flushDiskLocked()
	}
	return nil
}

// appendSorted appends rows to the sorted, duplicate-free mem for as long
// as they arrive in key order past mem's last key, collapsing rows of one
// key last-write-wins as it goes. At the first row that is out of order,
// or that rewrites a key mem already held, it gives up: ok is false and
// mem is returned as it came.
func appendSorted(mem, rows []Row) (out []Row, ok bool) {
	n := len(mem)
	for _, r := range rows {
		if last := len(mem) - 1; last >= 0 {
			switch prev := &mem[last]; {
			case prev.Key < r.Key:
			case prev.Key == r.Key && last >= n:
				if r.WriteTS >= prev.WriteTS {
					*prev = r
				}
				continue
			default:
				return mem[:n], false
			}
		}
		mem = append(mem, r)
	}
	return mem, true
}

// flushDiskLocked writes the memtable as an immutable on-disk segment — a
// flush round of one, inline on the write path when the memtable fills.
// Only after the round's barrier is the memtable dropped and the
// partition marked clean for commitlog truncation.
func (p *partition) flushDiskLocked() error {
	if len(p.mem) == 0 {
		return nil
	}
	if err := p.node.persist.Flush(p.table, p.key, p.mem); err != nil {
		return fmt.Errorf("store: flush %s/%s: %w", p.table, p.key, err)
	}
	p.mem = nil
	p.hasDirty = false
	return nil
}

// beginFlush hands the memtable to a flush round as the immutable
// flushing run and returns it (nil when there is nothing to flush).
func (p *partition) beginFlush() []Row {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.mem) == 0 {
		return nil
	}
	p.flushing, p.mem = p.mem, nil
	p.flushingSeg, p.hasFlushingSeg, p.hasDirty = p.dirtySeg, p.hasDirty, false
	return p.flushing
}

// endFlush retires the flushing run once its round is over: dropped when
// the segment holding it is published, merged back under the rows
// written since when the round failed.
func (p *partition) endFlush(published bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !published {
		p.mem = mergeRows(p.flushing, p.mem)
		if p.hasFlushingSeg {
			p.noteDirty(p.flushingSeg)
		}
	}
	p.flushing, p.hasFlushingSeg = nil, false
}

// pruneCfg carries a block pruner plus its counters through a pruned
// partition scan; nil means scan everything (the default read path).
type pruneCfg struct {
	pr    persist.Pruner
	stats *persist.PruneStats
}

func newPruneCfg(pr persist.Pruner, stats *persist.PruneStats) *pruneCfg {
	if pr == nil {
		return nil
	}
	return &pruneCfg{pr: pr, stats: stats}
}

// mergeInputs is a point-in-time view of the partition's merge inputs that
// can hold keys of a range, oldest first: on-disk segments by sequence,
// then the in-RAM runs (the flushing run, the memtable) cut to the range.
// The view outlives the partition lock (reads drain after releasing it):
// disk segments are immutable and refcounted, the flushing run is never
// mutated, and the in-range memtable rows are copied — sharing the live
// slice would race with put's in-place merge over the memtable's tail.
type mergeInputs struct {
	segs []*persist.Segment
	// cfgs, parallel to segs, carry (given a pruneCfg) the predicate pruner
	// plus the key ranges of every OTHER merge input as shadows: a block
	// whose keys can collide with another input is never pruned, so
	// last-write-wins reconciliation across duplicate keys is preserved
	// even when the losing version fails the predicate.
	cfgs []persist.ScanConfig
	runs [][]Row
}

func (p *partition) inputsLocked(rg Range, pc *pruneCfg) mergeInputs {
	var in mergeInputs
	segs := p.node.persist.Segments(p.table, p.key)
	in.segs = segs[:0]
	for _, seg := range segs {
		if seg.Overlaps(rg) {
			in.segs = append(in.segs, seg)
		}
	}
	in.cfgs = make([]persist.ScanConfig, len(in.segs))
	if pc != nil && len(in.segs) > 0 {
		// Key coverage of every merge input, disk segments first (index i
		// = segment i), then the in-RAM runs.
		cover := make([]persist.KeyRange, 0, len(in.segs)+2)
		for _, seg := range in.segs {
			min, max := seg.KeyRange()
			cover = append(cover, persist.KeyRange{Min: min, Max: max})
		}
		p.eachMemRun(func(rows []Row) {
			cover = append(cover, persist.KeyRange{Min: rows[0].Key, Max: rows[len(rows)-1].Key})
		})
		for i := range in.segs {
			shadows := make([]persist.KeyRange, 0, len(cover)-1)
			shadows = append(append(shadows, cover[:i]...), cover[i+1:]...)
			in.cfgs[i] = persist.ScanConfig{Pruner: pc.pr, Shadows: shadows, Stats: pc.stats}
		}
	}
	in.addRun(sliceRange(p.flushing, rg))
	in.addRun(slices.Clone(sliceRange(p.mem, rg)))
	return in
}

func (in *mergeInputs) addRun(rows []Row) {
	if len(rows) > 0 {
		in.runs = append(in.runs, rows)
	}
}

// openRows opens every input as a row iterator, for the last-write-wins
// merge.
func (in mergeInputs) openRows(rg Range) ([]persist.Iterator, error) {
	its := make([]persist.Iterator, 0, len(in.segs)+len(in.runs))
	for i, seg := range in.segs {
		it, err := seg.ScanPruned(rg, in.cfgs[i])
		if err != nil {
			for _, open := range its {
				open.Close()
			}
			return nil, err
		}
		its = append(its, it)
	}
	for _, rows := range in.runs {
		its = append(its, persist.NewSliceIter(rows))
	}
	return its, nil
}

// openBatches opens the inputs as one batch source. Inputs whose key
// ranges clipped to rg are pairwise disjoint cannot hold two versions of
// one key, so they are chained in key order straight from the block
// decoder (in-RAM runs through the rows→Batch adapter); any overlap sends
// every input through the last-write-wins merge, re-batched.
func (in mergeInputs) openBatches(rg Range, project []uint32) (_ persist.BatchIterator, chained bool, err error) {
	type span struct {
		min, max string
		input    int // < len(in.segs): a segment; otherwise a run
	}
	spans := make([]span, 0, len(in.segs)+len(in.runs))
	for _, seg := range in.segs {
		lo, hi := seg.KeyRange()
		if rg.To != "" {
			hi = min(hi, rg.To)
		}
		spans = append(spans, span{max(lo, rg.From), hi, len(spans)})
	}
	for _, rows := range in.runs {
		spans = append(spans, span{rows[0].Key, rows[len(rows)-1].Key, len(spans)})
	}
	slices.SortFunc(spans, func(a, b span) int { return strings.Compare(a.min, b.min) })
	for i := 1; i < len(spans); i++ {
		if spans[i].min <= spans[i-1].max {
			its, err := in.openRows(rg)
			if err != nil {
				return nil, false, err
			}
			return persist.BatchRows(persist.MergeIters(its), project), false, nil
		}
	}
	// Consecutive segments share one scanner; a run breaks the chain.
	var srcs []persist.BatchIterator
	var segs []*persist.Segment
	var cfgs []persist.ScanConfig
	chain := func() error {
		if len(segs) == 0 {
			return nil
		}
		bs, err := persist.ChainBatches(rg, segs, cfgs)
		if err == nil {
			srcs, segs, cfgs = append(srcs, bs), nil, nil
		}
		return err
	}
	for _, sp := range spans {
		if sp.input < len(in.segs) {
			cfg := in.cfgs[sp.input]
			cfg.Project = project
			segs, cfgs = append(segs, in.segs[sp.input]), append(cfgs, cfg)
			continue
		}
		if err = chain(); err != nil {
			break
		}
		srcs = append(srcs, persist.BatchRows(persist.NewSliceIter(in.runs[sp.input-len(in.segs)]), project))
	}
	if err == nil {
		err = chain()
	}
	it := persist.Concat(srcs)
	if err != nil {
		it.Close()
		return nil, false, err
	}
	return it, true, nil
}

// retryRetired runs open on a fresh snapshot of the partition's inputs.
// The segment list of a snapshot may race the background compactor, which
// can retire a listed segment before open acquires it; the merged
// replacement holds the same rows, so re-fetch and retry.
func retryRetired(open func() error) error {
	for attempt := 0; ; attempt++ {
		if err := open(); !errors.Is(err, persist.ErrRetired) || attempt >= 16 {
			return err
		}
	}
}

// snapshotIters captures a point-in-time view of the partition restricted
// to rg as merge inputs, oldest first, with block pruning on the disk
// segments when pc is set.
func (p *partition) snapshotIters(rg Range, pc *pruneCfg) (its []persist.Iterator, err error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	err = retryRetired(func() error {
		its, err = p.inputsLocked(rg, pc).openRows(rg)
		return err
	})
	return its, err
}

// snapshotBatches is snapshotIters for the batch path (see openBatches).
func (p *partition) snapshotBatches(rg Range, pc *pruneCfg, project []uint32) (it persist.BatchIterator, chained bool, err error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	err = retryRetired(func() error {
		it, chained, err = p.inputsLocked(rg, pc).openBatches(rg, project)
		return err
	})
	return it, chained, err
}

// eachMemRun calls fn with each non-empty in-RAM merge input of the
// partition, oldest first: the flushing run, the memtable.
func (p *partition) eachMemRun(fn func(rows []Row)) {
	if len(p.flushing) > 0 {
		fn(p.flushing)
	}
	if len(p.mem) > 0 {
		fn(p.mem)
	}
}

// keyBounds returns the partition's smallest and largest clustering key
// without scanning: the ends of the in-RAM runs and the disk segment
// footers. ok is false for an empty partition.
func (p *partition) keyBounds() (min, max string, ok bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	note := func(lo, hi string) {
		if !ok {
			min, max, ok = lo, hi, true
			return
		}
		if lo < min {
			min = lo
		}
		if hi > max {
			max = hi
		}
	}
	p.eachMemRun(func(rows []Row) { note(rows[0].Key, rows[len(rows)-1].Key) })
	for _, seg := range p.node.persist.Segments(p.table, p.key) {
		if seg.Rows() > 0 {
			lo, hi := seg.KeyRange()
			note(lo, hi)
		}
	}
	return min, max, ok
}

// table is the per-node collection of partitions for one table.
type table struct {
	mu         sync.RWMutex
	name       string
	node       *Node
	partitions map[string]*partition
}

func (t *table) partition(key string, create bool) *partition {
	t.mu.RLock()
	p := t.partitions[key]
	t.mu.RUnlock()
	if p != nil || !create {
		return p
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if p = t.partitions[key]; p == nil {
		p = &partition{node: t.node, table: t.name, key: key}
		t.partitions[key] = p
	}
	return p
}

func (t *table) partitionKeys() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	keys := make([]string, 0, len(t.partitions))
	for k := range t.partitions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (t *table) allPartitions() []*partition {
	t.mu.RLock()
	defer t.mu.RUnlock()
	parts := make([]*partition, 0, len(t.partitions))
	for _, p := range t.partitions {
		parts = append(parts, p)
	}
	return parts
}

// Node is one storage node of the cluster. All methods are safe for
// concurrent use. Each node owns a commitlog and a segment store under
// its own directory, mirroring Cassandra's per-node commitlog + SSTable
// layout.
type Node struct {
	id     string
	mu     sync.RWMutex
	tables map[string]*table

	flushThreshold int

	wal     *wal.Log
	persist *persist.Store
	// flushMu serializes flushAll rounds, so at most one flushing run per
	// partition exists and a returning Flush has seen every earlier row
	// reach disk.
	flushMu sync.Mutex
	// chainedScans and mergedScans count this node's batch partition
	// scans by the path their snapshot took (see mergeInputs.openBatches);
	// appendPuts and mergePuts its memtable puts (see partition.put).
	chainedScans, mergedScans atomic.Int64
	appendPuts, mergePuts     atomic.Int64
	// truncMu fences commitlog truncation against in-flight applies: an
	// apply holds it shared between the WAL append and the memtable
	// insert, so the truncator can never observe "appended but not yet
	// dirty-tracked" records.
	truncMu sync.RWMutex
}

func newNode(id string, flushThreshold int) *Node {
	return &Node{
		id:             id,
		tables:         make(map[string]*table),
		flushThreshold: flushThreshold,
	}
}

// ID returns the node identifier.
func (n *Node) ID() string { return n.id }

func (n *Node) createTable(name string) error {
	n.mu.RLock()
	_, exists := n.tables[name]
	n.mu.RUnlock()
	if exists {
		return nil
	}
	// Manifest first: an empty table has no segment footers and its
	// commitlog record dies with the next checkpoint truncation.
	if err := n.persist.AddTable(name); err != nil {
		return fmt.Errorf("store: node %s: persist create table: %w", n.id, err)
	}
	if _, err := n.wal.Append(encodeCreateTableRecord(nil, name)); err != nil {
		return fmt.Errorf("store: node %s: log create table: %w", n.id, err)
	}
	n.createTableLocal(name)
	return nil
}

// createTableLocal declares the table without touching the commitlog
// (recovery replay, and the tail of createTable).
func (n *Node) createTableLocal(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.tables[name]; !ok {
		n.tables[name] = &table{name: name, node: n, partitions: make(map[string]*partition)}
	}
}

func (n *Node) table(name string) (*table, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	t, ok := n.tables[name]
	if !ok {
		return nil, fmt.Errorf("store: node %s: no such table %q", n.id, name)
	}
	return t, nil
}

// partition returns the node's partition pkey of tableName, or nil when
// the node holds none of it. A table this node has never seen reads as
// empty, exactly like a partition it has never seen: the coordinator knows
// the table exists cluster-wide, and this replica may simply hold none of
// its data yet.
func (n *Node) partition(tableName, pkey string) *partition {
	t, err := n.table(tableName)
	if err != nil {
		return nil
	}
	return t.partition(pkey, false)
}

// apply writes rows to this node's partition, going through the commitlog
// first, and records the "wal.append" stage when ctx
// carries a trace. encoded, when non-nil, is the pre-built put record for
// (tableName, pkey, rows) — replicas append byte-identical records, so the
// coordinator encodes once and shares it (wal.Append copies the payload
// into its own buffer). nil means encode here.
func (n *Node) apply(ctx context.Context, tableName, pkey string, rows []Row, encoded []byte) error {
	st := obs.StartSpan(ctx, "wal.append")
	defer st.End()
	t, err := n.table(tableName)
	if err != nil {
		return err
	}
	n.truncMu.RLock()
	defer n.truncMu.RUnlock()
	if encoded == nil {
		encoded = encodePutRecord(nil, tableName, pkey, rows)
	}
	lsn, err := n.wal.Append(encoded)
	if err != nil {
		return fmt.Errorf("store: node %s: commitlog append: %w", n.id, err)
	}
	return t.partition(pkey, true).put(rows, lsn.Seg)
}

// applyReplayed inserts recovered rows without re-appending to the
// commitlog; walSeg tracks which commitlog segment still covers them.
func (n *Node) applyReplayed(tableName, pkey string, rows []Row, walSeg uint64) error {
	n.createTableLocal(tableName) // put records imply their table
	t, err := n.table(tableName)
	if err != nil {
		return err
	}
	return t.partition(pkey, true).put(rows, walSeg)
}

// KeyBounds returns the smallest and largest clustering key this node
// holds for one partition without scanning: memtable ends and segment
// footers. ok is false when the partition is empty or unknown.
func (n *Node) KeyBounds(_ context.Context, tableName, pkey string) (min, max string, ok bool, err error) {
	if p := n.partition(tableName, pkey); p != nil {
		min, max, ok = p.keyBounds()
	}
	return min, max, ok, nil
}

// PartitionKeys lists the partition keys this node holds for a table.
func (n *Node) PartitionKeys(_ context.Context, tableName string) ([]string, error) {
	t, err := n.table(tableName)
	if err != nil {
		return nil, nil
	}
	return t.partitionKeys(), nil
}

// MemtableRows reports the number of rows currently buffered in this
// node's memtables across all tables — the unflushed write volume a
// crash would replay from the commitlog.
func (n *Node) MemtableRows() int {
	total := 0
	for _, t := range n.allTables() {
		for _, p := range t.allPartitions() {
			p.mu.RLock()
			total += len(p.mem) + len(p.flushing)
			p.mu.RUnlock()
		}
	}
	return total
}

// flushAll flushes every dirty memtable of the node to disk as one flush
// round. Each memtable is handed over as an immutable, still
// readable flushing run — writers continue into a fresh memtable, readers
// never lose sight of a row — and is dropped, with its commitlog mark,
// only after the round's barrier has passed and its segment is published.
func (n *Node) flushAll() error {
	n.flushMu.Lock()
	defer n.flushMu.Unlock()
	var flushing []*partition
	var parts []persist.FlushPart
	for _, t := range n.allTables() {
		for _, p := range t.allPartitions() {
			if rows := p.beginFlush(); rows != nil {
				flushing = append(flushing, p)
				parts = append(parts, persist.FlushPart{Table: p.table, PKey: p.key, Rows: rows})
			}
		}
	}
	err := n.persist.FlushRound(parts)
	for _, p := range flushing {
		p.endFlush(err == nil)
	}
	if err != nil {
		return fmt.Errorf("store: node %s: flush round of %d partitions: %w", n.id, len(parts), err)
	}
	return nil
}

func (n *Node) allTables() []*table {
	n.mu.RLock()
	defer n.mu.RUnlock()
	tables := make([]*table, 0, len(n.tables))
	for _, t := range n.tables {
		tables = append(tables, t)
	}
	return tables
}

// truncateWAL removes commitlog segments whose every record has been
// flushed into on-disk segments: everything below the oldest segment still
// referenced by a dirty memtable (or below the active segment when all
// memtables are clean).
func (n *Node) truncateWAL() (int, error) {
	n.truncMu.Lock()
	defer n.truncMu.Unlock()
	cut := n.wal.ActiveSeg()
	for _, t := range n.allTables() {
		for _, p := range t.allPartitions() {
			p.mu.RLock()
			if p.hasDirty && p.dirtySeg < cut {
				cut = p.dirtySeg
			}
			if p.hasFlushingSeg && p.flushingSeg < cut {
				cut = p.flushingSeg
			}
			p.mu.RUnlock()
		}
	}
	return n.wal.TruncateBelow(cut)
}

// openDurable attaches a commitlog and a segment store rooted at dir.
// With a non-nil tier, the segment store opens tiered: evicted segments
// come back as footer stubs and its objects live under the node's id.
func (n *Node) openDurable(dir string, cfg Config, tier *objstore.Tier) error {
	var ts *persist.TierSetup
	if tier != nil {
		ts = &persist.TierSetup{Tier: tier, Prefix: "node-" + n.id}
	}
	ps, err := persist.OpenStoreTiered(dir+"/seg", ts)
	if err != nil {
		return fmt.Errorf("store: node %s: %w", n.id, err)
	}
	if len(cfg.ZoneMapColumns) > 0 {
		ps.SetZoneColumns(cfg.ZoneMapColumns)
	}
	log, err := wal.Open(wal.Options{
		Dir:                 dir + "/wal",
		SegmentBytes:        cfg.WALSegmentBytes,
		SyncPeriod:          cfg.WALSyncPeriod,
		NoSync:              cfg.WALNoSync,
		TolerateCorruptTail: cfg.WALTolerateCorruptTail,
		Logger:              cfg.Logger,
	})
	if err != nil {
		ps.Close()
		return fmt.Errorf("store: node %s: %w", n.id, err)
	}
	n.persist = ps
	n.wal = log
	return nil
}

// recover rebuilds the node's in-memory state from its segment store and
// commitlog: tables and partitions present on disk are materialized, then
// the commitlog is replayed into memtables. It returns the largest logical
// write timestamp observed, so the cluster's timestamp counter can resume
// past it, and the number of records and rows replayed.
//
// Replay may re-insert rows already persisted in on-disk segments: a crash
// between a memtable flush and the next commitlog truncation leaves the
// flushed records in the log. Last-write-wins merging keeps every read
// correct, but the duplicate physical copies stay until compaction merges
// them away, and each crash/restart cycle before a
// truncation can re-flush the same rows into a new segment. This is the
// standard LSM recovery tradeoff (idempotent replay instead of a
// flushed-through LSN per partition).
func (n *Node) recover() (maxWriteTS int64, records, rows int64, err error) {
	for _, tbl := range n.persist.Tables() {
		n.createTableLocal(tbl)
	}
	for tbl, pkeys := range n.persist.Partitions() {
		n.createTableLocal(tbl)
		t, terr := n.table(tbl)
		if terr != nil {
			return 0, 0, 0, terr
		}
		for _, pkey := range pkeys {
			t.partition(pkey, true)
		}
	}
	maxWriteTS = n.persist.MaxWriteTS()
	rstats, err := n.wal.Replay(func(lsn wal.LSN, payload []byte) error {
		rec, derr := decodeWALRecord(payload)
		if derr != nil {
			return derr
		}
		switch rec.kind {
		case recCreateTable:
			n.createTableLocal(rec.table)
		case recPut:
			for _, r := range rec.rows {
				if r.WriteTS > maxWriteTS {
					maxWriteTS = r.WriteTS
				}
			}
			rows += int64(len(rec.rows))
			return n.applyReplayed(rec.table, rec.pkey, rec.rows, lsn.Seg)
		}
		return nil
	})
	return maxWriteTS, rstats.Records, rows, err
}

// closeDurable closes the commitlog and segment store.
func (n *Node) closeDurable() error {
	err := n.wal.Close()
	if cerr := n.persist.Close(); err == nil {
		err = cerr
	}
	return err
}
