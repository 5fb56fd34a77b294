package store

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hpclog/internal/objstore"
	"hpclog/internal/obs"
	"hpclog/internal/store/persist"
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
	// listed: the partition is on its node's list of full memtables
	// (Node.full). Guarded by Node.fullMu.
	listed bool
}

// noteDirty lowers dirtySeg to cover commitlog segment seg.
func (p *partition) noteDirty(seg uint64) {
	if !p.hasDirty || seg < p.dirtySeg {
		p.dirtySeg, p.hasDirty = seg, true
	}
}

// put folds one batch into the sorted memtable as a unit. A batch that
// arrives in key order and past the memtable's last key — a time-series
// writer — is appended. Any other batch goes through the last-write-wins
// merge (persist.MergeRuns) with the memtable's tail from the batch's
// first key on, after a sort on a copy when it was out of order: the
// caller's slice is shared with the other replicas. Either way a key
// keeps the version persist.Newer ranks first, whatever order the
// versions came in. put never flushes: full reports that the memtable
// reached the flush threshold — the partition is then on the node's list
// of full memtables — and the caller, its locks released, runs a node
// flush round (Node.flushFull). The threshold is checked once per batch, so a
// partition-sized batch leaves as one segment.
func (p *partition) put(rows []Row, walSeg uint64) (full bool) {
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
				slices.SortFunc(rows, byKey)
			}
			tail := sort.Search(len(mem), func(i int) bool { return mem[i].Key >= rows[0].Key })
			mem = append(mem[:tail], persist.MergeRuns(mem[tail:], rows)...)
			p.node.mergePuts.Add(1)
		}
		p.mem = mem
	}
	if walSeg != 0 && len(p.mem) > 0 {
		p.noteDirty(walSeg)
	}
	if len(p.mem) < p.node.flushThreshold {
		return false
	}
	p.node.listFull(p)
	return true
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
				if persist.Newer(r, *prev) {
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

// beginFlush hands the memtable to a flush round as the immutable
// flushing run and returns it, or returns nil when the memtable holds
// fewer than floor rows (floor >= 1). Rounds are serialized by
// Node.flushMu, so no earlier run of this partition is still flushing.
func (p *partition) beginFlush(floor int) []Row {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.mem) < floor {
		return nil
	}
	p.flushing, p.mem = p.mem, nil
	p.flushingSeg, p.hasFlushingSeg, p.hasDirty = p.dirtySeg, p.hasDirty, false
	return p.flushing
}

// endFlush retires the flushing run once its round is over: dropped when
// the segment holding it is published, merged back with the rows written
// since when the round failed.
func (p *partition) endFlush(published bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !published {
		p.mem = persist.MergeRuns(p.flushing, p.mem)
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
// can hold keys of a range: its on-disk segments and its in-RAM runs (the
// flushing run, the memtable) cut to the range.
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

// openBatches opens the inputs as one batch source. Inputs whose key
// ranges clipped to rg are pairwise disjoint cannot hold two versions of
// one key, so they are chained in key order straight from the block
// decoder (an in-RAM run through the merge as its one input); any overlap
// sends every input through the last-write-wins merge, which batches its
// winners under the projection. With sel set only the rows it matches are
// batched: selected in the block decoder where inputs are chained, after
// the merge otherwise, so that a version sel rejects still shadows an
// older one it would accept. owned decodes chained segments into storage
// of their own, for a caller that keeps the rows.
func (in mergeInputs) openBatches(rg Range, project []uint32, sel *persist.Match, owned bool) (_ persist.BatchIterator, chained bool, err error) {
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
			it, err := persist.Merge(rg, in.segs, in.cfgs, in.runs, project, sel)
			return it, false, err
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
		bs, err := persist.ChainBatches(rg, owned, segs, cfgs)
		if err == nil {
			srcs, segs, cfgs = append(srcs, bs), nil, nil
		}
		return err
	}
	for _, sp := range spans {
		if sp.input < len(in.segs) {
			cfg := in.cfgs[sp.input]
			cfg.Project, cfg.Select = project, sel
			segs, cfgs = append(segs, in.segs[sp.input]), append(cfgs, cfg)
			continue
		}
		if err = chain(); err != nil {
			break
		}
		var run persist.BatchIterator
		if run, err = persist.Merge(rg, nil, nil, [][]Row{in.runs[sp.input-len(in.segs)]}, project, sel); err != nil {
			break
		}
		srcs = append(srcs, run)
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

// snapshot runs open on a point-in-time view of the partition restricted
// to rg, with block pruning on the disk segments when pc is set. The
// segment list of a view may race the background compactor, which can
// retire a listed segment before open acquires it; the merged replacement
// holds the same rows, so open is retried on a fresh view.
func (p *partition) snapshot(rg Range, pc *pruneCfg, open func(mergeInputs) error) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for attempt := 0; ; attempt++ {
		if err := open(p.inputsLocked(rg, pc)); !errors.Is(err, persist.ErrRetired) || attempt >= 16 {
			return err
		}
	}
}

// eachMemRun calls fn with each non-empty in-RAM merge input of the
// partition: the flushing run, the memtable.
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
// concurrent use. Each node owns a segment store under its own directory
// and appends its puts, tagged with its id, to the process's one
// commitlog, which it shares with every other local node — Cassandra's
// one commitlog per process beside per-table SSTables.
type Node struct {
	id     string
	mu     sync.RWMutex
	tables map[string]*table

	flushThreshold int

	log     *commitlog
	walTag  []byte // nodeTag(id), ahead of each of its commitlog records
	persist *persist.Store
	// flushMu serializes flush rounds, the write path's and DB.Flush's:
	// at most one flushing run per partition exists, a partition's
	// segments are published in the order its rows were handed over, and
	// a returning Flush has seen every earlier row reach disk.
	flushMu sync.Mutex
	// full lists the partitions whose memtable reached the flush threshold
	// since a round last took them: all a write-path round visits. A
	// partition is on it at most once (partition.listed).
	fullMu sync.Mutex
	full   []*partition
	// chainedScans and mergedScans count this node's batch partition
	// scans by the path their snapshot took (see mergeInputs.openBatches);
	// appendPuts and mergePuts its memtable puts (see partition.put).
	chainedScans, mergedScans atomic.Int64
	appendPuts, mergePuts     atomic.Int64
}

func newNode(id string, flushThreshold int) *Node {
	return &Node{
		id:             id,
		tables:         make(map[string]*table),
		flushThreshold: flushThreshold,
		walTag:         nodeTag(id),
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
	// The manifest is the table's only durable record: an empty table has
	// no segment footers, and the commitlog carries puts only.
	if err := n.persist.AddTable(name); err != nil {
		return fmt.Errorf("store: node %s: persist create table: %w", n.id, err)
	}
	n.createTableLocal(name)
	return nil
}

// createTableLocal declares the table in memory only (recovery, and the
// tail of createTable).
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

// apply writes rows to this node's partition, through the commitlog or,
// at flushThreshold rows or more, as a round of its own (see
// commitlog.apply). encoded, when non-nil, is the batch's put record.
func (n *Node) apply(ctx context.Context, tableName, pkey string, rows []Row, encoded []byte) error {
	return n.log.apply(ctx, []*Node{n}, tableName, pkey, rows, encoded)[0]
}

// applyRound writes a batch of at least flushThreshold rows as a node
// flush round of its own — write, fsys.Commit, publish — and records the
// "store.round" stage. Logged, the batch would fill a memtable that a
// round writes moments later; instead its segment is its log, with no
// commitlog record. It returns, and the batch is acked, only once the
// round's file is durable and its segment published, so a crash leaves
// the batch whole or absent. The versions of one key collapse to the one
// persist.Newer ranks first, as in a memtable.
func (n *Node) applyRound(ctx context.Context, tableName, pkey string, rows []Row) error {
	t, err := n.table(tableName)
	if err != nil {
		return err
	}
	st := obs.StartSpan(ctx, "store.round")
	defer st.End()
	part := persist.FlushPart{Table: t.name, PKey: pkey, Rows: collapse(rows)}
	n.flushMu.Lock()
	err = n.persist.FlushRound([]persist.FlushPart{part})
	n.flushMu.Unlock()
	if err != nil {
		return fmt.Errorf("store: node %s: round of a %d-row batch: %w", n.id, len(rows), err)
	}
	t.partition(pkey, true)
	return nil
}

// collapse returns rows in key order with one version per key. rows is
// shared with the other replicas: it is returned as it is when already
// strictly ordered, and otherwise left untouched.
func collapse(rows []Row) []Row {
	i := 1
	for i < len(rows) && rows[i-1].Key < rows[i].Key {
		i++
	}
	if i >= len(rows) {
		return rows
	}
	if out, ok := appendSorted(make([]Row, 0, len(rows)), rows); ok {
		return out
	}
	sorted := slices.Clone(rows)
	slices.SortFunc(sorted, func(a, b Row) int { return strings.Compare(a.Key, b.Key) })
	out, _ := appendSorted(sorted[:0], sorted) // in place: it writes no further than it has read
	return out
}

// applyReplayed inserts recovered rows without re-appending to the
// commitlog; walSeg tracks which commitlog segment still covers them.
func (n *Node) applyReplayed(tableName, pkey string, rows []Row, walSeg uint64) error {
	n.createTableLocal(tableName) // put records imply their table
	t, err := n.table(tableName)
	if err != nil {
		return err
	}
	if t.partition(pkey, true).put(rows, walSeg) {
		return n.flushFull()
	}
	return nil
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

// flushFull is the write path's flush round: a put that filled a
// memtable listed its partition as full, and the round writes the listed
// partitions whose memtables still hold FlushThreshold rows.
func (n *Node) flushFull() error {
	n.flushMu.Lock()
	defer n.flushMu.Unlock()
	return n.flushRound(n.takeFull(), n.flushThreshold)
}

// flushAll is DB.Flush's round: every non-empty memtable of the node,
// listed or not.
func (n *Node) flushAll() error {
	n.flushMu.Lock()
	defer n.flushMu.Unlock()
	n.takeFull() // the walk below covers the listed partitions
	var cands []*partition
	for _, t := range n.allTables() {
		cands = append(cands, t.allPartitions()...)
	}
	return n.flushRound(cands, 1)
}

// flushRound writes, in partition order, every memtable among cands
// holding at least floor rows as one flush round; the caller holds
// flushMu. Each memtable is handed over as an immutable, still readable
// flushing run — writers continue into a fresh memtable, readers never
// lose sight of a row, and no partition lock is held across encode, write
// and fsync — and is dropped, with its commitlog mark, only after the
// round's barrier has passed and its segment is published. A failed
// round's partitions go back on the list of full memtables, their rows
// merged back into their memtables.
func (n *Node) flushRound(cands []*partition, floor int) error {
	var flushing []*partition
	var parts []persist.FlushPart
	slices.SortFunc(cands, func(a, b *partition) int { return cmp.Or(cmp.Compare(a.table, b.table), cmp.Compare(a.key, b.key)) })
	for _, p := range cands {
		if rows := p.beginFlush(floor); rows != nil {
			flushing = append(flushing, p)
			parts = append(parts, persist.FlushPart{Table: p.table, PKey: p.key, Rows: rows})
		}
	}
	err := n.persist.FlushRound(parts)
	for _, p := range flushing {
		p.endFlush(err == nil)
		if err != nil {
			n.listFull(p)
		}
	}
	if err != nil {
		return fmt.Errorf("store: node %s: flush round of %d partitions: %w", n.id, len(parts), err)
	}
	return nil
}

// listFull puts p on the list of full memtables, unless it is on it.
func (n *Node) listFull(p *partition) {
	n.fullMu.Lock()
	defer n.fullMu.Unlock()
	if !p.listed {
		p.listed = true
		n.full = append(n.full, p)
	}
}

// takeFull empties the list of full memtables and returns what it held.
func (n *Node) takeFull() []*partition {
	n.fullMu.Lock()
	defer n.fullMu.Unlock()
	full := n.full
	n.full = nil
	for _, p := range full {
		p.listed = false
	}
	return full
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

// oldestDirty returns the oldest commitlog segment that a dirty or
// flushing memtable of the node still needs, or math.MaxUint64 when none
// does.
func (n *Node) oldestDirty() uint64 {
	seg := uint64(math.MaxUint64)
	for _, t := range n.allTables() {
		for _, p := range t.allPartitions() {
			p.mu.RLock()
			if p.hasDirty {
				seg = min(seg, p.dirtySeg)
			}
			if p.hasFlushingSeg {
				seg = min(seg, p.flushingSeg)
			}
			p.mu.RUnlock()
		}
	}
	return seg
}

// openDurable attaches a segment store rooted at dir/seg. With a non-nil
// tier, the segment store opens tiered: evicted segments come back as
// footer stubs and its objects live under the node's id.
func (n *Node) openDurable(dir string, tier *objstore.Tier) error {
	var ts *persist.TierSetup
	if tier != nil {
		ts = &persist.TierSetup{Tier: tier, Prefix: "node-" + n.id}
	}
	ps, err := persist.OpenStoreTiered(dir+"/seg", ts)
	if err != nil {
		return fmt.Errorf("store: node %s: %w", n.id, err)
	}
	n.persist = ps
	return nil
}

// recover rebuilds the node's in-memory state from its segment store:
// tables and partitions present on disk are materialized. It returns the
// largest logical write timestamp the segments hold. The commitlog's
// replay (commitlog.replay) then refills the memtables.
//
// Replay may re-insert rows already persisted in on-disk segments: a crash
// between a memtable flush and the next commitlog truncation leaves the
// flushed records in the log. Last-write-wins merging keeps every read
// correct, but the duplicate physical copies stay until compaction merges
// them away, and each crash/restart cycle before a
// truncation can re-flush the same rows into a new segment. This is the
// standard LSM recovery tradeoff (idempotent replay instead of a
// flushed-through LSN per partition).
func (n *Node) recover() (maxWriteTS int64, err error) {
	for _, tbl := range n.persist.Tables() {
		n.createTableLocal(tbl)
	}
	for tbl, pkeys := range n.persist.Partitions() {
		n.createTableLocal(tbl)
		t, err := n.table(tbl)
		if err != nil {
			return 0, err
		}
		for _, pkey := range pkeys {
			t.partition(pkey, true)
		}
	}
	return n.persist.MaxWriteTS(), nil
}
