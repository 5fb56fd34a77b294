package persist

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// MaxBatchRows is the most rows a Batch holds: one segment block.
const MaxBatchRows = indexEvery

// MaxDictLen is the most entries a dictionary Batch.Dict returns holds.
const MaxDictLen = sectionDictMax

// Batch is a run of at most MaxBatchRows consecutive rows in vector form: a
// key vector, a write-timestamp vector and either one value vector per
// projected column or, with no projection, every cell of every row. It is
// what the block decoder produces and what the analytics folds and the
// planner's aggregates consume; the Row iterator is an adapter over it.
//
// Lifetime: a Batch, its vectors, its dictionaries and every string
// reachable from them are valid only until the next batch is requested
// from the same source (or the source is closed) — the batch scan decodes
// in place from a pooled read buffer and a key arena that the next block
// overwrites. A consumer that keeps a string past that point must
// strings.Clone it.
type Batch struct {
	// WriteTS holds the logical write timestamps, parallel to Keys().
	WriteTS []int64

	keys []string // Keys' vector, once built
	// keyChunk is the front-coded key chunk of a block whose keys no one
	// has asked for yet ("" once built): Keys rebuilds them in keyArena, the
	// room at the head of the arena that the decoder left for them.
	keyChunk string
	keyArena []byte

	ts      []int64  // TS's vector, once asked for or walked off keyChunk
	project []uint32 // projected column IDs, ascending; nil = every column
	// cols holds one vector per projected column, parallel to WriteTS (""
	// = absent), then one per hole column of a projected column in
	// template form that the projection lacks (holes, their IDs).
	cols    []colVec
	holes   []uint32
	slots   []int32 // the segment's name-table index -> index into cols (-1: none)
	text    []byte  // room for the templated cells, filled on first ask
	lo, hi  int     // the rows of the decoded block that the batch shows
	cells   []Col   // unprojected: every row's cells, each row sorted by ID
	ends    []int32 // unprojected: ends[i] is the end of row i's cells
	rowCols []Col   // Row's scratch on a projected batch

	// Storage of the fixed-size vectors, in line so that a scanner and
	// its batch are one allocation.
	keyBuf [indexEvery]string
	wtsBuf [indexEvery]int64
	tsBuf  [indexEvery]int64
	endBuf [indexEvery]int32
}

// setProject readies the batch, in place, for rows under a projection.
func (b *Batch) setProject(project []uint32) {
	if project != nil {
		b.project = slices.Clone(project)
		slices.Sort(b.project)
		b.project = slices.Compact(b.project)
		b.cols = make([]colVec, len(b.project))
	}
	b.reset()
}

// reset empties the batch for the next block, keeping its capacity.
func (b *Batch) reset() {
	b.keys, b.keyChunk, b.keyArena, b.WriteTS, b.ts, b.ends = b.keyBuf[:0], "", nil, b.wtsBuf[:0], nil, b.endBuf[:0]
	b.cells = b.cells[:0]
	b.lo, b.hi = 0, 0
	for j := range b.cols {
		c := &b.cols[j]
		c.vals, c.dict, c.sdict, c.tmpls = c.vec[:0], nil, nil, nil
	}
}

// release drops every reference so a finished scan pins no block.
func (b *Batch) release() { *b = Batch{} }

// Len returns the number of rows.
func (b *Batch) Len() int { return len(b.WriteTS) }

// Keys returns the clustering keys, ascending. A block's keys are built
// on the first call; a consumer that reads none pays for none.
func (b *Batch) Keys() []string {
	if b.keyChunk != "" {
		b.buildKeys()
	}
	return b.keys
}

// buildKeys rebuilds the keys of keyChunk, which frontTS accepted, out of
// line so that Keys stays inlinable.
func (b *Batch) buildKeys() {
	b.keys = b.keyBuf[:len(b.WriteTS)]
	if _, err := decodeFrontCoded(b.keyChunk, len(b.keyArena), b.keys, b.keyArena[:0]); err != nil {
		panic(fmt.Sprintf("persist: key chunk accepted by frontTS: %v", err))
	}
	b.keyChunk, b.keyArena = "", nil
}

// Col returns the value vector of a projected column, parallel to WriteTS; an
// absent cell reads "". A column in template form is reassembled on the
// first call. Col also serves the hole columns of such a column. It
// returns nil for any other column and on an unprojected batch.
func (b *Batch) Col(id uint32) []string {
	c := b.colOf(id)
	if c == nil {
		return nil
	}
	if c.tmpls != nil && !c.filled {
		b.fill(c)
	}
	return c.vals
}

// colOf returns the vector of a projected or hole column, or nil.
func (b *Batch) colOf(id uint32) *colVec {
	for j, p := range b.project {
		if p == id {
			return &b.cols[j]
		}
	}
	for j, h := range b.holes {
		if h == id {
			return &b.cols[len(b.project)+j]
		}
	}
	return nil
}

// fill reassembles the templated cells of c into b.text, sized for them
// when the block was decoded.
func (b *Batch) fill(c *colVec) {
	b.text = fillTemplates(c, b.lo, b.hi, b.text, b.cols, b.slots)
}

// Template returns a projected column in template form when the batch's
// block stores it so: row i with codes[i] > 0 reads tmpls[codes[i]-1]
// filled with the row's cells of its holes — which Col and Dict serve —
// and any other row reads cells[i] ("" for a row without the cell). tmpls
// is the section's table, the same slice for every block of the section.
// It returns nils for every other column and batch. A fold that derives
// something from the text can derive it once per template of a section
// and once per hole value, without reassembling a cell.
func (b *Batch) Template(id uint32) (codes []uint8, tmpls []Template, cells []string) {
	for j, p := range b.project {
		if c := &b.cols[j]; p == id && c.tmpls != nil {
			return c.codes[b.lo:b.hi], c.tmpls, c.vals
		}
	}
	return nil, nil, nil
}

// TS returns the clustering timestamps, parallel to Keys(): what DecodeTS
// reads off Keys()[i], or -1 where the key carries no timestamp. A v5
// block's decoder walks them off the key chunk without building a key;
// otherwise the vector is built off the keys on the first call.
func (b *Batch) TS() []int64 {
	if b.ts == nil {
		b.ts = b.tsBuf[:0]
		for _, key := range b.keys {
			b.ts = append(b.ts, tsOf(key))
		}
	}
	return b.ts
}

// Dict returns a projected column — or a hole column Col serves — in
// dictionary form when the batch's block stores it so: Col(id)[i] ==
// dict[codes[i]], with codes parallel to WriteTS and every distinct value
// of the block once in dict (an absent cell codes for a ""; dict may hold
// values no row of the batch uses). Where the block codes the column into
// its section's dictionary, dict is that dictionary: the same slice for
// every block of the section. It returns nil, nil for every other column
// and batch — a consumer falls back to Col. What a fold derives from a
// value (a parsed number, a topology location, a predicate's verdict) it
// can derive once per dict entry instead of once per row, and with a
// DictMemo once per section.
func (b *Batch) Dict(id uint32) (codes []uint8, dict []string) {
	codes, dict, _ = b.dictOf(id)
	return codes, dict
}

// dictOf is Dict, and the section dictionary dict is, if it is one.
func (b *Batch) dictOf(id uint32) (codes []uint8, dict []string, sd *sectionDict) {
	if c := b.colOf(id); c != nil && len(c.dict) > 0 {
		return c.codes[b.lo:b.hi], c.dict, c.sdict
	}
	return nil, nil, nil
}

// DictMemo keeps what a fold derives from each entry of a column's
// dictionary (Batch.Dict) for as long as the batches it is shown share
// their section's dictionary: the entries are resolved once per section
// and not once per block. Not safe for concurrent use.
type DictMemo[S any] struct {
	sd   *sectionDict // the dictionary vals belong to; nil: a block's own
	vals []S
}

// Resolve returns column id of b in dictionary form, as Dict does, and
// vals, parallel to dict, where the fold keeps what it derives from each
// entry. fresh reports vals zeroed for a dictionary other than the one
// the memo held last; otherwise they are as the fold left them.
func (m *DictMemo[S]) Resolve(b *Batch, id uint32) (codes []uint8, dict []string, vals []S, fresh bool) {
	codes, dict, sd := b.dictOf(id)
	if dict == nil {
		return nil, nil, nil, false
	}
	if sd != nil && sd == m.sd {
		return codes, dict, m.vals, false
	}
	m.sd = sd
	m.vals = slices.Grow(m.vals[:0], len(dict))[:len(dict)]
	clear(m.vals)
	return codes, dict, m.vals, true
}

// DictFunc is a function of dictionary values whose results a section
// dictionary keeps: whichever scan asks first, it runs once per entry of a
// section's dictionary for the life of the section — and once per entry of
// a block's own dictionary per block.
type DictFunc[S any] struct {
	f    func(string) S
	slot int32
}

var dictFuncs atomic.Int32

// NewDictFunc returns f as a DictFunc. Make one per function, at init: a
// section dictionary keeps results per DictFunc.
func NewDictFunc[S any](f func(string) S) *DictFunc[S] {
	return &DictFunc[S]{f: f, slot: dictFuncs.Add(1)}
}

// Of returns the function of v.
func (r *DictFunc[S]) Of(v string) S { return r.f(v) }

// Resolve returns column id of b in dictionary form, as Dict does, and
// vals, the function of each entry: held by a section dictionary, or — for
// a block's own — computed into buf; nils where Dict returns nil.
func (r *DictFunc[S]) Resolve(b *Batch, id uint32, buf *[MaxDictLen]S) (codes []uint8, dict []string, vals []S) {
	codes, dict, sd := b.dictOf(id)
	if sd == nil {
		vals = buf[:len(dict)]
		for k, v := range dict {
			vals[k] = r.f(v)
		}
		return codes, dict, vals
	}
	if v, ok := sd.derived.Load(r.slot); ok {
		return codes, dict, v.([]S)
	}
	kept := make([]S, len(dict))
	for k, v := range dict {
		kept[k] = r.f(v)
	}
	sd.derived.Store(r.slot, kept)
	return codes, dict, kept
}

// Row returns row i. On a projected batch the row carries only the
// projected, non-empty cells and is valid until the next call of Row.
func (b *Batch) Row(i int) Row {
	r := Row{Key: b.Keys()[i], WriteTS: b.WriteTS[i]}
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
		if c := &b.cols[j]; c.tmpls != nil && !c.filled {
			b.fill(c)
		}
		if v := b.cols[j].vals[i]; v != "" {
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
	b.keys = append(b.keys, r.Key)
	b.WriteTS = append(b.WriteTS, r.WriteTS)
	if b.project == nil {
		b.cells = append(b.cells, r.cols...)
		b.ends = append(b.ends, int32(len(b.cells)))
		return
	}
	for j, id := range b.project {
		b.cols[j].vals = append(b.cols[j].vals, r.ColID(id))
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

// Concat is one BatchIterator over srcs, drained one after the other, each
// closed once exhausted. It takes ownership of srcs.
func Concat(srcs []BatchIterator) BatchIterator {
	if len(srcs) == 1 {
		return srcs[0]
	}
	return &concat{srcs: srcs}
}

type concat struct {
	srcs []BatchIterator
	err  error
}

func (c *concat) Next() (*Batch, bool) {
	for len(c.srcs) > 0 && c.err == nil {
		if b, ok := c.srcs[0].Next(); ok {
			return b, true
		}
		c.err = c.srcs[0].Err()
		c.srcs[0].Close()
		c.srcs = c.srcs[1:]
	}
	return nil, false
}

func (c *concat) Err() error { return c.err }

func (c *concat) Close() error {
	for _, src := range c.srcs {
		src.Close()
	}
	c.srcs = nil
	return nil
}

// scanBufs is what a block is decoded from: the raw block as read, the
// arena of what front coding makes the decoder rebuild — the keys, long
// values — and the room for the cells templates make it reassemble.
// Pooled across scans.
type scanBufs struct {
	block, arena, text []byte
	// An unprojected decode's columns, and the place of each name-table
	// index among them.
	vecs []colVec
	at   []int32
}

var scanBufPool = sync.Pool{New: func() any { return &scanBufs{block: make([]byte, 0, 32<<10)} }}

// PoisonBatches is a test hook: while set, a batch scan overwrites its
// block buffer and key arena before reading the next block and at Close,
// so a consumer that kept a string past the Batch lifetime sees garbage
// instead of silently correct data.
var PoisonBatches atomic.Bool

func unsafeString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// scanInput is one segment of a batch scan, acquired.
type scanInput struct {
	s     *Segment
	cfg   ScanConfig
	local bool // read off the local data file (fenced open before any eviction)
}

// BatchScanner is THE segment block decoder, and the BatchIterator over a
// chain of segments with disjoint key ranges: it reads each segment's
// unpruned in-range blocks in order — off the local file, or through the
// tier's verified block cache when the segment is evicted — and decodes
// each into its Batch, v5 and v6 blocks alike, visiting the chunks of the
// projected columns only and of the hole columns of a projected column in
// template form.
type BatchScanner struct {
	scanInput             // the segment being scanned; s == nil between segments
	next      []scanInput // the segments still to come
	rg        Range
	// lo and hi are rg as far as it can cut the block being decoded: ""
	// where the footer already proves every key of the block inside, so
	// interior blocks compare no keys.
	lo, hi string
	block  int // next block to read
	buf    *scanBufs
	// slots maps the segment's local column indexes to projected vector
	// indexes (-1 = skip the cell); nil keeps every cell.
	slots []int32
	// owned makes every batch self-contained: the block is copied into an
	// immutable string, keys and cells go to fresh arenas, so rows handed
	// out stay valid for as long as a caller holds them (the Row adapter).
	// Otherwise strings alias buf and arena and die with the next block.
	owned bool
	// Scratch of the decoder: the column directory and — unprojected — the
	// order in which its columns are transposed into cells.
	dir   []colChunk
	order []int
	// offer is what a Pruner is shown of a block: its statistics with its
	// fold record attached.
	offer  BlockStats
	b      Batch
	err    error
	closed bool
	// In-line storage of next, dir and order for the common scan: one
	// segment, a handful of columns per block.
	nextBuf  [1]scanInput
	dirBuf   [12]colChunk
	orderBuf [12]int
}

// open acquires the segments of inputs that can hold keys of rg, for a
// scan in the order given. On error nothing stays acquired.
func (sc *BatchScanner) open(rg Range, owned bool, segs []*Segment, cfgs []ScanConfig) error {
	sc.rg, sc.owned = rg, owned
	sc.next, sc.dir, sc.order = sc.nextBuf[:0], sc.dirBuf[:0], sc.orderBuf[:0]
	for i, s := range segs {
		if !s.Overlaps(rg) {
			continue
		}
		local, err := s.acquire()
		if err != nil {
			sc.Close()
			return err
		}
		sc.next = append(sc.next, scanInput{s, cfgs[i], local})
	}
	if len(sc.next) > 0 {
		sc.buf = scanBufPool.Get().(*scanBufs)
		sc.b.setProject(cfgs[0].Project)
	}
	return nil
}

// advance moves on to the next segment of the chain.
func (sc *BatchScanner) advance() bool {
	if sc.s != nil {
		sc.s.release()
		sc.s = nil
	}
	if len(sc.next) == 0 {
		return false
	}
	sc.scanInput, sc.next = sc.next[0], sc.next[1:]
	sc.block = sc.s.startBlock(sc.rg.From)
	if sc.b.project != nil {
		sc.slots = sc.slots[:0]
		for _, id := range sc.s.colIDs {
			sc.slots = append(sc.slots, int32(slices.Index(sc.b.project, id)))
		}
		sc.widen()
	}
	return true
}

// widen adds to the batch the hole columns of the segment's templates
// that the projection lacks, where it holds the template column.
func (sc *BatchScanner) widen() {
	b, m := &sc.b, sc.s.meta
	b.cols, b.holes, b.slots = b.cols[:len(b.project)], b.holes[:0], sc.slots
	if len(m.Templates) == 0 || sc.slots[m.TmplCol] < 0 {
		return
	}
	for _, t := range m.Templates {
		for _, local := range t.local {
			if sc.slots[local] >= 0 {
				continue
			}
			id := sc.s.colIDs[local]
			j := slices.Index(b.holes, id)
			if j < 0 {
				j = len(b.holes)
				b.holes = append(b.holes, id)
			}
			sc.slots[local] = int32(len(b.project) + j)
		}
	}
	b.cols = slices.Grow(b.cols, len(b.holes))[:len(b.project)+len(b.holes)]
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
	if sc.s.fold != nil {
		sc.offer = *b
		sc.offer.fold = &sc.s.fold[i]
		b = &sc.offer
	}
	return sc.cfg.Pruner.PruneBlock(b)
}

// fill decodes blocks until one has rows in range.
func (sc *BatchScanner) fill() bool {
	if sc.closed || sc.err != nil || sc.buf == nil { // no buffer: no segment holds keys of rg
		return false
	}
	if !sc.owned && PoisonBatches.Load() {
		sc.poison()
	}
	for {
		if sc.s == nil && !sc.advance() {
			return false
		}
		ix := sc.s.meta.Index
		if sc.block >= len(ix) || sc.rg.To != "" && ix[sc.block].Key >= sc.rg.To {
			sc.advance() // past the segment, or the block starts past the range
			continue
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
		if sc.hi != "" && sc.s.meta.Blocks[blk].MaxKey < sc.hi {
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
	buf := sc.buf.block[:0]
	if sc.local {
		buf = slices.Grow(buf, int(hi-lo))[:hi-lo]
		sc.buf.block = buf
		if _, err := sc.s.file.f.ReadAt(buf, sc.s.base+lo); err != nil {
			return "", fmt.Errorf("block read: %w", err)
		}
	} else {
		// Evicted segment: Merkle-verified read-through the tier's block
		// cache. The bytes are copied out, so the cache entry is released
		// immediately.
		data, release, err := sc.s.tier.ReadBlock(context.Background(), sc.s.tierKey, blk, sc.s.base+lo, hi-lo, sc.s.root, sc.s.tree)
		if err != nil {
			return "", fmt.Errorf("tier block read: %w", err)
		}
		if sc.owned {
			s := string(data)
			release()
			return s, nil
		}
		buf = append(buf, data...)
		sc.buf.block = buf
		release()
	}
	if sc.owned {
		return string(buf), nil
	}
	// Decode in place: every value of the batch is a substring of the read
	// buffer, which stays untouched until the next fill.
	return unsafeString(buf), nil
}

// decode expands one block into the batch: the keys and write
// timestamps, cut to the range, then the chunks of the columns the scan
// wants and no others. Where no key is compared (the range holds the
// block) or kept past it, the keys stay front-coded until Keys is called;
// only their timestamps are walked off the chunk. A column in template
// form is decoded after its holes, and its templated cells are
// reassembled — in room sized here — when first asked for, or at once
// where the batch is unprojected.
func (sc *BatchScanner) decode(blk string) error {
	b := &sc.b
	b.reset()
	var pb parsedBlock
	if err := pb.parse(blk, sc.s.meta, sc.s.colIDs, sc.dir); err != nil {
		return err
	}
	sc.dir = pb.cols
	n := pb.n

	// Every string rebuilt from a front coding lives in one arena, sized
	// up front so that it never moves under the strings already in it;
	// the keys take its head.
	arena := sc.buf.arena[:0]
	if need := pb.keyBytes + pb.frontBytes; sc.owned {
		arena = make([]byte, 0, need)
	} else if cap(arena) < need {
		arena = make([]byte, 0, need)
		sc.buf.arena = arena
	}
	var err error
	lo, hi := 0, n
	if !sc.owned && sc.lo == "" && sc.hi == "" {
		if err := frontTS(pb.keys, pb.keyBytes, b.tsBuf[:n]); err != nil {
			return corrupt("keys: %w", err)
		}
		b.ts, b.keyChunk, b.keyArena = b.tsBuf[:n], pb.keys, arena[:pb.keyBytes]
		arena = b.keyArena
	} else {
		if arena, err = decodeFrontCoded(pb.keys, pb.keyBytes, b.keyBuf[:n], arena); err != nil {
			return corrupt("keys: %w", err)
		}
		if sc.lo != "" {
			for lo < n && b.keyBuf[lo] < sc.lo {
				lo++ // before the range, behind the sparse-index seek point
			}
		}
		if sc.hi != "" {
			for hi = lo; hi < n && b.keyBuf[hi] < sc.hi; hi++ {
			}
		}
		if lo == hi {
			return nil
		}
		b.keys = b.keyBuf[lo:hi]
	}
	if err := decodeWriteTS(pb.wts, b.wtsBuf[:n]); err != nil {
		return err
	}
	b.WriteTS = b.wtsBuf[lo:hi]
	b.lo, b.hi = lo, hi

	if sc.slots != nil {
		var tc *colChunk
		for i := range pb.cols {
			c := &pb.cols[i]
			j := sc.slots[c.local]
			if j < 0 || len(b.cols[j].vals) > 0 {
				continue // of two columns under one ID the first counts, as for Row.ColID
			}
			b.cols[j].vals = b.cols[j].vec[lo:hi]
			if c.enc == encTemplate {
				tc = c // after the columns its holes name
				continue
			}
			if arena, err = c.decode(n, &b.cols[j], arena); err != nil {
				return fmt.Errorf("%w (column %q)", err, sc.s.meta.ColNames[c.local])
			}
		}
		for j := range b.cols {
			if c := &b.cols[j]; len(c.vals) == 0 { // no cell of the column in this block
				c.vals = c.vec[lo:hi]
				clear(c.vals)
			}
		}
		if tc == nil {
			return nil
		}
		v := &b.cols[sc.slots[tc.local]]
		if _, err = tc.decode(n, v, nil); err == nil {
			b.text, err = sc.textRoom(v, n, lo, hi, pb.cols, b.cols, sc.slots)
		}
		if err != nil {
			return fmt.Errorf("%w (column %q)", err, sc.s.meta.ColNames[tc.local])
		}
		return nil
	}

	// Every column: count each row's cells off the presence bitmaps, then
	// transpose column by column in ID order, which leaves every row's
	// cells sorted as the Row form wants them.
	window := ^uint64(0) >> (64 - (hi - lo)) << lo
	var at [indexEvery + 1]int32 // at[i+1]: cells of row lo+i, then where its next cell goes
	for i := range pb.cols {
		for m := pb.cols[i].present & window; m != 0; m &= m - 1 {
			at[bits.TrailingZeros64(m)-lo+1]++
		}
	}
	for i := 1; i <= hi-lo; i++ {
		at[i] += at[i-1]
		b.ends = append(b.ends, at[i])
	}
	if total := int(at[hi-lo]); sc.owned {
		b.cells = make([]Col, total)
	} else {
		b.cells = slices.Grow(b.cells, total)[:total]
	}
	// Decode every column into a vector of its own, one in template form
	// after the rest, then transpose them in ID order.
	if len(sc.buf.vecs) < len(pb.cols) {
		sc.buf.vecs = make([]colVec, len(pb.cols))
	}
	vecs, tc := sc.buf.vecs[:len(pb.cols)], -1
	sc.order = sc.order[:0]
	for i := range pb.cols {
		c := &pb.cols[i]
		sc.order = append(sc.order, i)
		if c.enc == encTemplate {
			tc = i
			continue
		}
		if arena, err = c.decode(n, &vecs[i], arena); err != nil {
			return fmt.Errorf("%w (column %q)", err, sc.s.meta.ColNames[c.local])
		}
	}
	if tc >= 0 {
		c := &pb.cols[tc]
		place := slices.Grow(sc.buf.at[:0], len(sc.s.colIDs))[:len(sc.s.colIDs)]
		sc.buf.at = place
		for i := range pb.cols {
			place[pb.cols[i].local] = int32(i)
		}
		var text []byte
		if _, err = c.decode(n, &vecs[tc], nil); err == nil {
			text, err = sc.textRoom(&vecs[tc], n, lo, hi, pb.cols, vecs, place)
		}
		if err != nil {
			return fmt.Errorf("%w (column %q)", err, sc.s.meta.ColNames[c.local])
		}
		fillTemplates(&vecs[tc], lo, hi, text, vecs, place)
	}
	slices.SortStableFunc(sc.order, func(x, y int) int { return int(pb.cols[x].id) - int(pb.cols[y].id) })
	for _, i := range sc.order {
		c := &pb.cols[i]
		for m := c.present & window; m != 0; m &= m - 1 {
			row := bits.TrailingZeros64(m)
			b.cells[at[row-lo]] = Col{ID: c.id, Value: vecs[i].vec[row]}
			at[row-lo]++
		}
	}
	return nil
}

// textRoom returns empty room for the templated cells of rows [lo, hi) of
// v, a column in template form of a block of n rows whose directory is
// dir, its holes vecs[at[local]]: the pooled buffer, or a fresh one where
// the scan owns its batches.
func (sc *BatchScanner) textRoom(v *colVec, n, lo, hi int, dir []colChunk, vecs []colVec, at []int32) ([]byte, error) {
	need, err := templateBytes(v, n, lo, hi, dir, vecs, at)
	if err != nil {
		return nil, err
	}
	if sc.owned {
		return make([]byte, 0, need), nil
	}
	if cap(sc.buf.text) < need {
		sc.buf.text = make([]byte, 0, need)
	}
	return sc.buf.text[:0:need], nil
}

// poison scribbles over the block buffer, the arena and the room for
// templated cells (see PoisonBatches).
func (sc *BatchScanner) poison() {
	for _, buf := range [][]byte{sc.buf.block[:cap(sc.buf.block)], sc.buf.arena[:cap(sc.buf.arena)], sc.buf.text[:cap(sc.buf.text)]} {
		for i := range buf {
			buf[i] = 0xA5
		}
	}
}

// Close releases the segments and the read buffer. It is idempotent.
func (sc *BatchScanner) Close() error {
	if sc.closed {
		return nil
	}
	sc.closed = true
	if sc.s != nil {
		sc.s.release()
	}
	for _, in := range sc.next {
		in.s.release()
	}
	sc.s, sc.next = nil, nil
	if sc.buf == nil {
		return nil
	}
	if !sc.owned && PoisonBatches.Load() {
		sc.poison()
	}
	sc.b.release()
	scanBufPool.Put(sc.buf)
	sc.buf, sc.dir = nil, nil
	return nil
}

// ChainBatches streams the rows within rg of segments whose key ranges
// within rg are disjoint, in the order given, as batches of at most one
// block: one scanner, one batch and one set of column vectors serve them
// all. Only the projected columns are materialized and blocks a
// configuration's Pruner proves irrelevant are skipped. cfgs is parallel
// to segs; the projection is that of cfgs[0]. Batches alias the scanner's
// read buffer; see Batch for the lifetime contract.
func ChainBatches(rg Range, segs []*Segment, cfgs []ScanConfig) (*BatchScanner, error) {
	sc := &BatchScanner{}
	if err := sc.open(rg, false, segs, cfgs); err != nil {
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
// configuration's Pruner proves irrelevant. Rows stay valid for as long as
// the caller holds them: their strings are substrings of one immutable
// copy of the block, or of an arena no later block reuses.
func (s *Segment) ScanPruned(rg Range, cfg ScanConfig) (Iterator, error) {
	cfg.Project = nil
	it := &segIter{}
	if err := it.sc.open(rg, true, []*Segment{s}, []ScanConfig{cfg}); err != nil {
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
