package persist

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Batch is a run of at most indexEvery consecutive rows in vector form: a
// key vector, a write-timestamp vector and either one value vector per
// projected column or, with no projection, every cell of every row. It is
// what the block decoder produces and what the analytics folds and the
// planner's aggregates consume; the Row iterator is an adapter over it.
//
// Lifetime: a Batch, its vectors and every string reachable from them are
// valid only until the next batch is requested from the same source (or
// the source is closed) — the batch scan decodes in place from a pooled
// read buffer that the next block overwrites. A consumer that keeps a
// string past that point must strings.Clone it.
type Batch struct {
	// Keys holds the clustering keys, ascending.
	Keys []string
	// WriteTS holds the logical write timestamps, parallel to Keys.
	WriteTS []int64

	project []uint32   // projected column IDs, ascending; nil = every column
	vals    [][]string // one vector per projected column, parallel to Keys ("" = absent)
	cells   []Col      // unprojected: every row's cells, each row sorted by ID
	ends    []int32    // unprojected: ends[i] is the end of row i's cells
	rowCols []Col      // Row's scratch on a projected batch

	// Storage of the fixed-size vectors, in line so that a scanner and
	// its batch are one allocation.
	keyBuf [indexEvery]string
	tsBuf  [indexEvery]int64
	endBuf [indexEvery]int32
}

// setProject readies the batch, in place, for rows under a projection.
func (b *Batch) setProject(project []uint32) {
	b.Keys, b.WriteTS, b.ends = b.keyBuf[:0], b.tsBuf[:0], b.endBuf[:0]
	if project == nil {
		return
	}
	b.project = slices.Clone(project)
	slices.Sort(b.project)
	b.project = slices.Compact(b.project)
	b.vals = make([][]string, len(b.project))
	for j := range b.vals {
		b.vals[j] = make([]string, 0, indexEvery)
	}
}

// reset empties the batch for the next block, keeping its capacity.
func (b *Batch) reset() {
	b.Keys, b.WriteTS = b.Keys[:0], b.WriteTS[:0]
	b.cells, b.ends = b.cells[:0], b.ends[:0]
	for j := range b.vals {
		b.vals[j] = b.vals[j][:0]
	}
}

// release drops every reference so a finished scan pins no block.
func (b *Batch) release() { *b = Batch{} }

// Len returns the number of rows.
func (b *Batch) Len() int { return len(b.Keys) }

// Col returns the value vector of a projected column, parallel to Keys; an
// absent cell reads "". It returns nil for a column outside the
// projection and on an unprojected batch.
func (b *Batch) Col(id uint32) []string {
	for j, p := range b.project {
		if p == id {
			return b.vals[j]
		}
	}
	return nil
}

// Row returns row i in the compact form. On a projected batch the row
// carries only the projected, non-empty cells and is valid until the next
// call of Row.
func (b *Batch) Row(i int) Row {
	r := Row{Key: b.Keys[i], WriteTS: b.WriteTS[i]}
	if b.project == nil {
		lo := 0
		if i > 0 {
			lo = int(b.ends[i-1])
		}
		if hi := int(b.ends[i]); hi > lo {
			r.cols = b.cells[lo:hi:hi]
		}
		return r
	}
	b.rowCols = b.rowCols[:0]
	for j, id := range b.project {
		if v := b.vals[j][i]; v != "" {
			b.rowCols = append(b.rowCols, Col{ID: id, Value: v})
		}
	}
	if len(b.rowCols) > 0 {
		r.cols = b.rowCols
	}
	return r
}

// appendRow adds a row (rows→Batch adapter).
func (b *Batch) appendRow(r Row) {
	b.Keys = append(b.Keys, r.Key)
	b.WriteTS = append(b.WriteTS, r.WriteTS)
	if b.project == nil {
		b.cells = append(b.cells, r.Compact().cols...)
		b.ends = append(b.ends, int32(len(b.cells)))
		return
	}
	for j, id := range b.project {
		b.vals[j] = append(b.vals[j], r.ColID(id))
	}
}

// BatchIterator streams a partition's rows as batches in clustering-key
// order. Not safe for concurrent use.
type BatchIterator interface {
	// Next returns the next non-empty batch, valid until the following
	// Next or Close. ok == false means the scan is exhausted or failed;
	// check Err afterwards.
	Next() (b *Batch, ok bool)
	// Err reports the first error encountered, or nil.
	Err() error
	// Close releases the iterator. It is idempotent.
	Close() error
}

// BatchRows adapts a row iterator to a BatchIterator: the one rows→Batch
// path, used for merged inputs, in-memory runs and remote scan streams.
// It takes ownership of it.
func BatchRows(it Iterator, project []uint32) BatchIterator {
	rb := &rowBatcher{it: it}
	rb.b.setProject(project)
	return rb
}

type rowBatcher struct {
	it Iterator
	b  Batch
}

func (rb *rowBatcher) Next() (*Batch, bool) {
	rb.b.reset()
	for rb.b.Len() < indexEvery {
		r, ok := rb.it.Next()
		if !ok {
			break
		}
		rb.b.appendRow(r)
	}
	return &rb.b, rb.b.Len() > 0
}

func (rb *rowBatcher) Err() error { return rb.it.Err() }

func (rb *rowBatcher) Close() error {
	rb.b.release()
	return rb.it.Close()
}

// blockBufPool holds the raw block read buffers, pooled across scans.
var blockBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 32<<10); return &b }}

// PoisonBatches is a test hook: while set, a batch scan overwrites its
// block buffer before reading the next block and at Close, so a consumer
// that kept a string past the Batch lifetime sees garbage instead of
// silently correct data.
var PoisonBatches atomic.Bool

// BatchScanner is THE segment block decoder, and the BatchIterator over one
// segment: it reads the segment's unpruned in-range blocks in order — off
// the local file, or through the tier's verified block cache when the
// segment is evicted — and walks each block's length-prefixed cells once
// into its Batch. Rows outside rg are stepped over by their cell lengths,
// and so are the cells of columns outside the projection.
type BatchScanner struct {
	s  *Segment // nil: nothing to scan
	rg Range
	// lo and hi are rg as far as it can cut the block being decoded: ""
	// where the footer already proves every key of the block inside, so
	// interior blocks compare no keys.
	lo, hi string
	cfg    ScanConfig
	local  bool // read via s.f (fenced open before any eviction)
	block  int  // next block to read
	buf    *[]byte
	// slots maps the segment's local column indexes to projected vector
	// indexes (-1 = skip the cell); nil keeps every cell.
	slots []int32
	// owned makes every batch self-contained: the block is copied into an
	// immutable string and the cells go to a fresh arena, so rows handed
	// out stay valid for as long as a caller holds them (the Row adapter).
	// Otherwise strings alias buf and die with the next block.
	owned bool
	// arenaCap tracks the cell count of the largest block so far, sizing
	// the next owned arena so decode does one arena allocation per block.
	arenaCap int
	b        Batch
	err      error
	closed   bool
}

// open acquires s for a scan of rg. A segment that cannot hold keys of rg
// leaves the scanner empty.
func (sc *BatchScanner) open(s *Segment, rg Range, cfg ScanConfig, owned bool) error {
	if !s.Overlaps(rg) {
		return nil
	}
	local, err := s.acquire()
	if err != nil {
		return err
	}
	if len(s.meta.Blocks) == 0 {
		cfg.Pruner = nil // v2 segment: nothing to prune on
	}
	sc.s, sc.rg, sc.cfg, sc.local, sc.owned = s, rg, cfg, local, owned
	sc.block = s.startBlock(rg.From)
	sc.buf = blockBufPool.Get().(*[]byte)
	sc.b.setProject(cfg.Project)
	if cfg.Project != nil {
		sc.slots = make([]int32, len(s.colIDs))
		for i, id := range s.colIDs {
			sc.slots[i] = int32(slices.Index(sc.b.project, id))
		}
	}
	return nil
}

// prunable reports whether block i may be skipped: the pruner proves no
// row can match AND no other merge input shadows the block's key range.
func (sc *BatchScanner) prunable(i int) bool {
	if sc.cfg.Pruner == nil {
		return false
	}
	b := &sc.s.meta.Blocks[i]
	for _, sh := range sc.cfg.Shadows {
		if sh.overlaps(b.MinKey, b.MaxKey) {
			return false
		}
	}
	return sc.cfg.Pruner.PruneBlock(b)
}

// fill decodes blocks until one has rows in range.
func (sc *BatchScanner) fill() bool {
	if sc.s == nil || sc.closed || sc.err != nil {
		return false
	}
	if !sc.owned && PoisonBatches.Load() {
		sc.poison()
	}
	ix := sc.s.meta.Index
	for {
		if sc.block >= len(ix) {
			return false
		}
		if sc.rg.To != "" && ix[sc.block].Key >= sc.rg.To {
			return false // the block starts past the range
		}
		if sc.prunable(sc.block) {
			if sc.cfg.Stats != nil {
				sc.cfg.Stats.BlocksPruned.Add(1)
			}
			sc.block++
			continue
		}
		blk := sc.block
		sc.block++
		if sc.cfg.Stats != nil {
			sc.cfg.Stats.BlocksRead.Add(1)
		}
		sc.lo, sc.hi = sc.rg.From, sc.rg.To
		if ix[blk].Key >= sc.lo {
			sc.lo = ""
		}
		if bs := sc.s.meta.Blocks; sc.hi != "" && len(bs) > 0 && bs[blk].MaxKey < sc.hi {
			sc.hi = ""
		}
		data, err := sc.read(blk)
		if err == nil {
			err = sc.decode(data)
		}
		if err != nil {
			sc.err = fmt.Errorf("persist: %s: %w", sc.s.path, err)
			sc.b.reset()
			return false
		}
		if sc.b.Len() > 0 {
			return true
		}
	}
}

// read returns block blk as a string: an immutable copy when the scan
// owns its batches, an alias of the pooled buffer otherwise.
func (sc *BatchScanner) read(blk int) (string, error) {
	lo, hi := sc.s.blockBounds(blk)
	buf := (*sc.buf)[:0]
	if sc.local {
		buf = slices.Grow(buf, int(hi-lo))[:hi-lo]
		*sc.buf = buf
		if _, err := sc.s.f.ReadAt(buf, lo); err != nil {
			return "", fmt.Errorf("block read: %w", err)
		}
	} else {
		// Evicted segment: Merkle-verified read-through the tier's block
		// cache. The bytes are copied out, so the cache entry is released
		// immediately.
		data, release, err := sc.s.tier.ReadBlock(context.Background(), sc.s.tierKey, blk, lo, hi-lo, sc.s.root, sc.s.tree)
		if err != nil {
			return "", fmt.Errorf("tier block read: %w", err)
		}
		if sc.owned {
			s := string(data)
			release()
			return s, nil
		}
		buf = append(buf, data...)
		*sc.buf = buf
		release()
	}
	if sc.owned {
		return string(buf), nil
	}
	// Decode in place: every key and value of the batch is a substring of
	// the read buffer, which stays untouched until the next fill.
	return unsafe.String(unsafe.SliceData(buf), len(buf)), nil
}

// decode walks one block's rows into the batch. It accepts and rejects
// exactly what StringDec.Row does, cell by cell, whether or not the cell
// is kept.
func (sc *BatchScanner) decode(blk string) error {
	b := &sc.b
	b.reset()
	if sc.owned {
		if sc.arenaCap == 0 {
			sc.arenaCap = 4 * indexEvery
		}
		b.cells = make([]Col, 0, sc.arenaCap)
	}
	ids := sc.s.colIDs
	d := StringDec{s: blk}
	for d.Rest() > 0 {
		key, err := d.String()
		if err != nil {
			return fmt.Errorf("persist: row key: %w", err)
		}
		if sc.hi != "" && key >= sc.hi {
			break // keys ascend: the rest of the block is out of range
		}
		ts, err := d.Varint()
		if err != nil {
			return fmt.Errorf("persist: row write-ts: %w", err)
		}
		ncols, err := d.Uvarint()
		if err != nil {
			return fmt.Errorf("persist: row column count: %w", err)
		}
		if ncols > maxCols {
			return fmt.Errorf("persist: column count %d exceeds sanity bound", ncols)
		}
		keep := sc.lo == "" || key >= sc.lo // else: skipping from the sparse-index seek point
		row, start := len(b.Keys), len(b.cells)
		for i := uint64(0); i < ncols; i++ {
			idx, v, short := d.shortCell()
			if !short {
				if idx, err = d.Uvarint(); err != nil {
					return fmt.Errorf("persist: row column %d: %w", i, err)
				}
				if v, err = d.String(); err != nil {
					return fmt.Errorf("persist: row column %d value: %w", i, err)
				}
			}
			if idx >= uint64(len(ids)) {
				return fmt.Errorf("persist: row %q references unknown column id %d (table has %d)", key, idx, len(ids))
			}
			if !keep {
				continue
			}
			if sc.slots == nil {
				b.cells = append(b.cells, Col{ID: ids[idx], Value: v})
			} else if j := sc.slots[idx]; j >= 0 && len(b.vals[j]) == row {
				// The length test keeps the first of duplicate cells, as
				// Row.ColID does.
				b.vals[j] = append(b.vals[j], v)
			}
		}
		if !keep {
			continue
		}
		b.Keys = append(b.Keys, key)
		b.WriteTS = append(b.WriteTS, ts)
		if sc.slots == nil {
			// Writers emit columns in their dictionary order, which need
			// not match this process's; restore the sorted-by-ID invariant
			// (near-sorted in practice, so the insertion sort is ~free).
			sortCols(b.cells[start:])
			b.ends = append(b.ends, int32(len(b.cells)))
			continue
		}
		for j, vec := range b.vals {
			if len(vec) == row {
				b.vals[j] = append(vec, "") // column absent from this row
			}
		}
	}
	if len(b.cells) > sc.arenaCap {
		sc.arenaCap = len(b.cells)
	}
	return nil
}

// shortCell decodes one cell — column index, then length-prefixed value —
// when both varints take one byte, which is every cell but a long raw
// message; small enough to inline into the walker's inner loop.
func (d *StringDec) shortCell() (idx uint64, v string, ok bool) {
	s, p := d.s, d.pos
	if p+1 < len(s) && s[p] < 0x80 && s[p+1] < 0x80 {
		if end := p + 2 + int(s[p+1]); end <= len(s) {
			d.pos = end
			return uint64(s[p]), s[p+2 : end], true
		}
	}
	return 0, "", false
}

// poison scribbles over the block buffer (see PoisonBatches).
func (sc *BatchScanner) poison() {
	buf := (*sc.buf)[:cap(*sc.buf)]
	for i := range buf {
		buf[i] = 0xA5
	}
}

// Close releases the segment and the read buffer. It is idempotent.
func (sc *BatchScanner) Close() error {
	if sc.closed || sc.s == nil {
		sc.closed = true
		return nil
	}
	sc.closed = true
	sc.s.release(sc.local)
	if !sc.owned && PoisonBatches.Load() {
		sc.poison()
	}
	sc.b.release()
	blockBufPool.Put(sc.buf)
	sc.buf = nil
	return nil
}

// ScanBatches streams the segment's rows within rg as batches of at most
// one block, materializing only cfg.Project's columns and skipping blocks
// the configuration's Pruner proves irrelevant. Batches alias the
// scanner's read buffer; see Batch for the lifetime contract.
func (s *Segment) ScanBatches(rg Range, cfg ScanConfig) (*BatchScanner, error) {
	sc := &BatchScanner{}
	if err := sc.open(s, rg, cfg, false); err != nil {
		return nil, err
	}
	return sc, nil
}

// Next decodes the next block with rows in range into the scanner's batch.
func (sc *BatchScanner) Next() (*Batch, bool) {
	if !sc.fill() {
		return nil, false
	}
	return &sc.b, true
}

// Err reports the first read or decode error.
func (sc *BatchScanner) Err() error { return sc.err }

// ScanPruned streams the segment's rows within rg, skipping blocks the
// configuration's Pruner proves irrelevant. On segments without block
// statistics (codec v2) it behaves exactly like Scan. Rows stay valid for
// as long as the caller holds them: their strings are substrings of one
// immutable copy of the block.
func (s *Segment) ScanPruned(rg Range, cfg ScanConfig) (Iterator, error) {
	cfg.Project = nil
	it := &segIter{}
	if err := it.sc.open(s, rg, cfg, true); err != nil {
		return nil, err
	}
	return it, nil
}

// segIter is the Row adapter over the block decoder.
type segIter struct {
	sc  BatchScanner
	pos int // next row within the current batch
}

func (it *segIter) Next() (Row, bool) {
	if it.pos >= it.sc.b.Len() {
		if !it.sc.fill() {
			return Row{}, false
		}
		it.pos = 0
	}
	it.pos++
	return it.sc.b.Row(it.pos - 1), true
}

func (it *segIter) Err() error { return it.sc.err }

func (it *segIter) Close() error {
	it.pos = 0
	return it.sc.Close()
}
