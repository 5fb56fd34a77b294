package persist

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"

	"hpclog/internal/objstore"
)

// Segment file layout (codec v5):
//
//	header  : "HPSEG005" (8 bytes)
//	data    : blocks of at most indexEvery rows in clustering-key order,
//	          each stored column by column (see block.go)
//	footer  : binary footerMeta (own deterministic codec, no gob)
//	trailer : u32 footerLen | u32 crc32(footer) | "HPSEGFT4" (8 bytes)
//
// The footer carries the partition identity, the key and time ranges used
// for scan pruning, the segment's column-name table (blocks reference
// table-local indexes instead of repeating name strings), a sparse
// clustering-key index (one entry every indexEvery rows) used to seek
// near Range.From, a CRC of the data region, per-block statistics — a zone
// map (key/WriteTS bounds, per-column min/max for the writer's hot set)
// and a Bloom filter over the block's column cells (see blockstats.go) —
// and one Merkle leaf per block. Files are written to a temporary name and
// renamed into place, so a segment either exists completely or not at all
// — torn writes are the commitlog's problem, never the segment store's.
//
// The sparse index is the block structure of the file: consecutive entries
// delimit blocks of exactly indexEvery rows (the final block may be
// short), and BlockStats[i] and Leaves[i] describe exactly the block
// starting at Index[i]. Scans read and decode one block at a time.
//
// There is one writer generation and two reader generations. A codec v4
// file (header "HPSEG004") has the same footer and trailer — the trailer's
// magic names the footer's format, which v5 did not change — and the same
// block boundaries; only the bytes of a block differ (a run of
// length-prefixed rows, codec.go's row encoding). v4 files stay readable,
// resident or tiered, and ordinary compaction rewrites them as v5. Files
// of codecs v1–v3 are refused at open with ErrVersion.
const (
	segHeader   = "HPSEG005"
	segHeaderV4 = "HPSEG004"
	segTrailer  = "HPSEGFT4"
	trailerLen  = 4 + 4 + 8
	indexEvery  = 64
	segFileExt  = ".seg"
	// segStubExt marks the footer stub left behind when a segment's data
	// is evicted to the object store: header + footer + trailer, no data
	// region. Parsed exactly like a segment at open, so zone maps, Blooms,
	// and the sparse index stay resident with zero object-store fetches.
	segStubExt   = ".sft"
	segTempExt   = objstore.TempExt
	maxFooterLen = 256 << 20
)

// Segment codec generations: the one written, and the one before it, still
// read.
const (
	SegVersion   = 5
	segVersionV4 = 4
)

// IndexEntry is one sparse-index sample: the clustering key of a row and
// the file offset where its encoding starts.
type IndexEntry struct {
	Key string
	Off int64
}

// footerMeta is the segment footer.
type footerMeta struct {
	Table     string
	Partition string
	Seq       uint64
	Rows      int
	MinKey    string
	MaxKey    string
	// MinTS/MaxTS are the clustering-time bounds (DecodeTS of MinKey and
	// MaxKey), or 0 when keys do not carry timestamps. Scans prune on the key
	// range; the time range is surfaced for observability.
	MinTS      int64
	MaxTS      int64
	MaxWriteTS int64
	DataLen    int64 // end offset of the data region (header included)
	DataCRC    uint32
	ColNames   []string // the segment's column-name table
	Index      []IndexEntry
	// Blocks holds per-block statistics, parallel to Index. Zone IDs are
	// segment-local name-table indexes on disk, remapped to process-wide
	// dictionary IDs at open.
	Blocks []BlockStats
	// Leaves holds the Merkle leaf hash of each data block, parallel to
	// Index. The leaves live in the footer so they stay resident after
	// eviction; a fetched block is verified leaf-then-proof against the
	// manifest-pinned root.
	Leaves [][objstore.HashLen]byte
}

// appendFooter encodes the footer with the package's own codec —
// deterministic, compact, and no encoding/gob dependency. zoneLocal maps
// each block's Zones (parallel slices) to name-table indexes.
func appendFooter(b []byte, m *footerMeta, zoneLocal []int) []byte {
	appendStr := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	appendStr(m.Table)
	appendStr(m.Partition)
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendUvarint(b, uint64(m.Rows))
	appendStr(m.MinKey)
	appendStr(m.MaxKey)
	b = binary.AppendVarint(b, m.MinTS)
	b = binary.AppendVarint(b, m.MaxTS)
	b = binary.AppendVarint(b, m.MaxWriteTS)
	b = binary.AppendUvarint(b, uint64(m.DataLen))
	b = binary.LittleEndian.AppendUint32(b, m.DataCRC)
	b = appendColTable(b, m.ColNames)
	b = binary.AppendUvarint(b, uint64(len(m.Index)))
	prev := int64(0)
	for _, e := range m.Index {
		appendStr(e.Key)
		// Offsets are ascending; delta-encode them.
		b = binary.AppendUvarint(b, uint64(e.Off-prev))
		prev = e.Off
	}
	b = binary.AppendUvarint(b, uint64(len(m.Blocks)))
	for i := range m.Blocks {
		blk := &m.Blocks[i]
		appendStr(blk.MaxKey)
		b = binary.AppendVarint(b, blk.MinWriteTS)
		b = binary.AppendVarint(b, blk.MaxWriteTS)
		b = binary.AppendUvarint(b, uint64(blk.Rows))
		b = binary.AppendUvarint(b, uint64(len(blk.Zones)))
		for j := range blk.Zones {
			z := &blk.Zones[j]
			b = binary.AppendUvarint(b, uint64(zoneLocal[j]))
			appendStr(z.MinVal)
			appendStr(z.MaxVal)
			b = binary.AppendUvarint(b, uint64(z.Cells))
			b = binary.AppendUvarint(b, uint64(z.NumCells))
			if z.NumCells > 0 {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(z.MinNum))
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(z.MaxNum))
			}
		}
		b = binary.AppendUvarint(b, uint64(blk.bloom.k))
		appendStr(blk.bloom.bits)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Leaves)))
	for i := range m.Leaves {
		b = append(b, m.Leaves[i][:]...)
	}
	return b
}

// decodeFooter reverses appendFooter.
func decodeFooter(fb []byte) (*footerMeta, error) {
	d := NewStringDec(string(fb))
	m := &footerMeta{}
	var err error
	fail := func(what string, e error) error {
		return fmt.Errorf("persist: footer %s: %w", what, e)
	}
	if m.Table, err = d.String(); err != nil {
		return nil, fail("table", err)
	}
	if m.Partition, err = d.String(); err != nil {
		return nil, fail("partition", err)
	}
	if m.Seq, err = d.Uvarint(); err != nil {
		return nil, fail("seq", err)
	}
	rows, err := d.Uvarint()
	if err != nil {
		return nil, fail("rows", err)
	}
	m.Rows = int(rows)
	if m.MinKey, err = d.String(); err != nil {
		return nil, fail("min key", err)
	}
	if m.MaxKey, err = d.String(); err != nil {
		return nil, fail("max key", err)
	}
	if m.MinTS, err = d.Varint(); err != nil {
		return nil, fail("min ts", err)
	}
	if m.MaxTS, err = d.Varint(); err != nil {
		return nil, fail("max ts", err)
	}
	if m.MaxWriteTS, err = d.Varint(); err != nil {
		return nil, fail("max write ts", err)
	}
	dataLen, err := d.Uvarint()
	if err != nil {
		return nil, fail("data len", err)
	}
	m.DataLen = int64(dataLen)
	if d.Rest() < 4 {
		return nil, fail("data crc", io.ErrUnexpectedEOF)
	}
	crcStr, err := d.String4()
	if err != nil {
		return nil, fail("data crc", err)
	}
	m.DataCRC = binary.LittleEndian.Uint32([]byte(crcStr))
	nNames, err := d.Uvarint()
	if err != nil {
		return nil, fail("name table", err)
	}
	if nNames > maxCols {
		return nil, fail("name table", fmt.Errorf("size %d exceeds sanity bound", nNames))
	}
	m.ColNames = make([]string, nNames)
	for i := range m.ColNames {
		s, err := d.String()
		if err != nil {
			return nil, fail("name table entry", err)
		}
		m.ColNames[i] = s
	}
	nIdx, err := d.Uvarint()
	if err != nil {
		return nil, fail("index", err)
	}
	if nIdx > uint64(len(fb)) {
		return nil, fail("index", fmt.Errorf("size %d overruns footer", nIdx))
	}
	m.Index = make([]IndexEntry, nIdx)
	prev := int64(0)
	for i := range m.Index {
		k, err := d.String()
		if err != nil {
			return nil, fail("index key", err)
		}
		delta, err := d.Uvarint()
		if err != nil {
			return nil, fail("index offset", err)
		}
		if i > 0 && delta == 0 {
			return nil, fail("index offset", fmt.Errorf("entry %d not ascending", i))
		}
		prev += int64(delta)
		if prev < int64(len(segHeader)) || prev >= m.DataLen {
			// An offset outside the data region would make block bounds
			// negative downstream; fail here with a clear error instead.
			return nil, fail("index offset", fmt.Errorf("entry %d offset %d outside data region [%d, %d)", i, prev, len(segHeader), m.DataLen))
		}
		m.Index[i] = IndexEntry{Key: k, Off: prev}
	}
	nBlocks, err := d.Uvarint()
	if err != nil {
		return nil, fail("blocks", err)
	}
	if nBlocks != uint64(len(m.Index)) {
		return nil, fail("blocks", fmt.Errorf("%d block stats for %d index entries", nBlocks, len(m.Index)))
	}
	m.Blocks = make([]BlockStats, nBlocks)
	for i := range m.Blocks {
		blk := &m.Blocks[i]
		blk.MinKey = m.Index[i].Key
		if blk.MaxKey, err = d.String(); err != nil {
			return nil, fail("block max key", err)
		}
		if blk.MinWriteTS, err = d.Varint(); err != nil {
			return nil, fail("block min write ts", err)
		}
		if blk.MaxWriteTS, err = d.Varint(); err != nil {
			return nil, fail("block max write ts", err)
		}
		rows, err := d.Uvarint()
		if err != nil {
			return nil, fail("block rows", err)
		}
		blk.Rows = int(rows)
		nZones, err := d.Uvarint()
		if err != nil {
			return nil, fail("block zones", err)
		}
		if nZones > uint64(len(m.ColNames)) {
			return nil, fail("block zones", fmt.Errorf("%d zones for %d columns", nZones, len(m.ColNames)))
		}
		blk.Zones = make([]ColZone, nZones)
		for j := range blk.Zones {
			z := &blk.Zones[j]
			local, err := d.Uvarint()
			if err != nil {
				return nil, fail("zone column", err)
			}
			if local >= uint64(len(m.ColNames)) {
				return nil, fail("zone column", fmt.Errorf("index %d beyond name table (%d)", local, len(m.ColNames)))
			}
			z.ID = uint32(local) // remapped to dictionary IDs at open
			if z.MinVal, err = d.String(); err != nil {
				return nil, fail("zone min", err)
			}
			if z.MaxVal, err = d.String(); err != nil {
				return nil, fail("zone max", err)
			}
			cells, err := d.Uvarint()
			if err != nil {
				return nil, fail("zone cells", err)
			}
			z.Cells = int(cells)
			numCells, err := d.Uvarint()
			if err != nil {
				return nil, fail("zone numeric cells", err)
			}
			z.NumCells = int(numCells)
			if z.NumCells > 0 {
				lo, err := d.Uint64LE()
				if err != nil {
					return nil, fail("zone min num", err)
				}
				hi, err := d.Uint64LE()
				if err != nil {
					return nil, fail("zone max num", err)
				}
				z.MinNum = math.Float64frombits(lo)
				z.MaxNum = math.Float64frombits(hi)
			}
		}
		k, err := d.Uvarint()
		if err != nil {
			return nil, fail("block bloom k", err)
		}
		if k > 64 {
			return nil, fail("block bloom k", fmt.Errorf("%d hash functions exceeds sanity bound", k))
		}
		bits, err := d.String()
		if err != nil {
			return nil, fail("block bloom", err)
		}
		blk.bloom = bloom{bits: bits, k: uint32(k)}
	}
	nLeaves, err := d.Uvarint()
	if err != nil {
		return nil, fail("merkle leaves", err)
	}
	if nLeaves != uint64(len(m.Index)) {
		return nil, fail("merkle leaves", fmt.Errorf("%d leaves for %d blocks", nLeaves, len(m.Index)))
	}
	m.Leaves = make([][objstore.HashLen]byte, nLeaves)
	for i := range m.Leaves {
		raw, err := d.Raw(objstore.HashLen)
		if err != nil {
			return nil, fail("merkle leaf", err)
		}
		copy(m.Leaves[i][:], raw)
	}
	return m, nil
}

// Raw decodes exactly n raw bytes (no length prefix).
func (d *StringDec) Raw(n int) (string, error) {
	if d.Rest() < n {
		return "", io.ErrUnexpectedEOF
	}
	s := d.s[d.pos : d.pos+n]
	d.pos += n
	return s, nil
}

// String4 decodes exactly 4 raw bytes (no length prefix).
func (d *StringDec) String4() (string, error) {
	if d.Rest() < 4 {
		return "", io.ErrUnexpectedEOF
	}
	s := d.s[d.pos : d.pos+4]
	d.pos += 4
	return s, nil
}

// Uint64LE decodes 8 raw little-endian bytes (no length prefix).
func (d *StringDec) Uint64LE() (uint64, error) {
	if d.Rest() < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	d.pos += 8
	return le64(d.s[d.pos-8:]), nil
}

// le64 reads the first 8 bytes of s, little-endian.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Writer streams sorted rows into a new segment file. Rows must be
// appended in strictly ascending clustering-key order (the memtable and
// the compaction merge both produce that order), and — a block is encoded
// when it is full, not row by row — must stay untouched until the append
// that follows their block's last row, or seal, returns.
type Writer struct {
	path string   // final name; written as path+segTempExt until its round commits
	f    *os.File // the temp file
	*writerScratch
	crc  uint32
	off  int64
	meta footerMeta
	done bool
	// size and colIDs are set by seal: the file's length and the name
	// table's local index → dictionary ID mapping, what open needs beside
	// meta to stand in for a parse of the file.
	size   int64
	colIDs []uint32

	zoneIDs []uint32  // hot columns with per-block zone maps, sorted by ID
	zones   []ColZone // the zone maps of the block under construction, parallel to zoneIDs
}

// writerScratch is the buffer space a Writer borrows from scratchPool for
// its lifetime, so a round of N segments allocates it once per worker and
// not once per segment: the 64 KiB file buffer, the block and footer
// encoding buffer, the block under construction, the name table, the
// block's Bloom hashes and the leaf hasher.
type writerScratch struct {
	bw    *bufio.Writer
	buf   []byte
	enc   blockEnc
	tb    colTableEnc
	bb    bloomBuilder
	leafH hash.Hash
}

var scratchPool = sync.Pool{New: func() any {
	return &writerScratch{bw: bufio.NewWriterSize(nil, 64<<10), leafH: sha256.New()}
}}

// NewWriter creates a segment writer targeting path (written via a
// temporary file until its round commits).
func NewWriter(path, table, pkey string, seq uint64) (*Writer, error) {
	f, err := os.Create(path + segTempExt)
	if err != nil {
		return nil, fmt.Errorf("persist: create segment: %w", err)
	}
	w := &Writer{
		path: path, f: f, writerScratch: scratchPool.Get().(*writerScratch),
		meta: footerMeta{Table: table, Partition: pkey, Seq: seq},
	}
	w.bw.Reset(f)
	w.tb.reset()
	w.setZoneColumnNames(DefaultZoneColumns)
	if _, err := w.bw.WriteString(segHeader); err != nil {
		w.discard()
		return nil, err
	}
	w.off = int64(len(segHeader))
	w.crc = crc32.Update(0, crcTable, []byte(segHeader))
	return w, nil
}

// SetZoneColumns replaces the hot set of columns receiving per-block
// min/max zone maps (default DefaultZoneColumns). Must be called before
// the first Append.
func (w *Writer) SetZoneColumns(names []string) error {
	if w.meta.Rows > 0 {
		return fmt.Errorf("persist: SetZoneColumns after Append")
	}
	w.setZoneColumnNames(names)
	return nil
}

func (w *Writer) setZoneColumnNames(names []string) {
	w.zoneIDs = w.zoneIDs[:0]
	for _, n := range names {
		w.zoneIDs = append(w.zoneIDs, defaultDict.Intern(n))
	}
	slices.Sort(w.zoneIDs)
	w.zones = make([]ColZone, len(w.zoneIDs))
	w.resetBlock()
}

func (w *Writer) resetBlock() {
	for i := range w.zones {
		w.zones[i] = ColZone{ID: w.zoneIDs[i]}
	}
	w.bb.reset()
}

// finishBlock encodes and writes the buffered rows as one block and files
// its offset's companions in the footer: the Merkle leaf and the block
// statistics. The statistics' strings are cloned because the rows and the
// zone maps reference values owned by the caller (compaction feeds values
// that alias decoded blocks of the inputs); the footer must not pin them.
func (w *Writer) finishBlock() error {
	if len(w.enc.rows) == 0 {
		return nil
	}
	rows := w.enc.rows
	bs := BlockStats{
		MinKey: w.meta.Index[len(w.meta.Index)-1].Key,
		MaxKey: strings.Clone(rows[len(rows)-1].Key),
		Rows:   len(rows),
		Zones:  make([]ColZone, len(w.zones)),
	}
	var blk []byte
	blk, bs.MinWriteTS, bs.MaxWriteTS = w.encodeBlock()
	if _, err := w.bw.Write(blk); err != nil {
		return err
	}
	w.crc = crc32.Update(w.crc, crcTable, blk)
	w.off += int64(len(blk))
	var leaf [objstore.HashLen]byte
	w.leafH.Reset()
	w.leafH.Write(objstore.LeafDomain)
	w.leafH.Write(blk)
	w.leafH.Sum(leaf[:0])
	w.meta.Leaves = append(w.meta.Leaves, leaf)
	for i, z := range w.zones {
		z.MinVal = strings.Clone(z.MinVal)
		z.MaxVal = strings.Clone(z.MaxVal)
		bs.Zones[i] = z
	}
	bs.bloom = w.bb.build()
	w.meta.Blocks = append(w.meta.Blocks, bs)
	w.resetBlock()
	return nil
}

// Append adds one row to the block under construction, writing the block
// before it out if that one is full.
func (w *Writer) Append(r Row) error {
	if w.done {
		return fmt.Errorf("persist: append after Finish")
	}
	if w.meta.Rows > 0 && r.Key <= w.meta.MaxKey {
		return fmt.Errorf("persist: rows out of order: %q after %q", r.Key, w.meta.MaxKey)
	}
	if len(w.enc.rows) == indexEvery {
		if err := w.finishBlock(); err != nil {
			return err
		}
	}
	if len(w.enc.rows) == 0 {
		// Cloned like the block statistics: the footer outlives the round
		// as the resident segment's metadata and must not pin the caller's
		// rows.
		w.meta.Index = append(w.meta.Index, IndexEntry{Key: strings.Clone(r.Key), Off: w.off})
	}
	w.enc.rows = append(w.enc.rows, r)
	w.meta.MaxKey = r.Key
	if r.WriteTS > w.meta.MaxWriteTS {
		w.meta.MaxWriteTS = r.WriteTS
	}
	w.meta.Rows++
	return nil
}

// seal writes the last block and the footer, hands every byte to the temp
// file and closes it. Nothing is synced: the file becomes durable, and
// gets its final name, in the barrier of the round that owns the writer.
func (w *Writer) seal() error {
	if w.done {
		return fmt.Errorf("persist: double Finish")
	}
	w.done = true
	if err := w.finishBlock(); err != nil {
		w.discard()
		return err
	}
	w.meta.DataLen = w.off
	w.meta.DataCRC = w.crc
	if w.meta.Rows > 0 {
		w.meta.MinKey = w.meta.Index[0].Key
		w.meta.MaxKey = strings.Clone(w.meta.MaxKey)
		w.meta.MinTS, w.meta.MaxTS = max(tsOf(w.meta.MinKey), 0), max(tsOf(w.meta.MaxKey), 0)
	}
	// Zone columns land in the name table even when no row carries them:
	// an all-absent column is the strongest pruning signal.
	zoneLocal := make([]int, len(w.zoneIDs))
	for i, id := range w.zoneIDs {
		zoneLocal[i] = w.tb.localIdx(Col{ID: id})
	}
	w.meta.ColNames = slices.Clone(w.tb.names)
	w.colIDs = slices.Clone(w.tb.ids)
	fb := appendFooter(w.buf[:0], &w.meta, zoneLocal)
	w.size = w.off + int64(len(fb)) + trailerLen
	var tail [trailerLen]byte
	binary.LittleEndian.PutUint32(tail[0:4], uint32(len(fb)))
	binary.LittleEndian.PutUint32(tail[4:8], crc32.Checksum(fb, crcTable))
	copy(tail[8:], segTrailer)
	_, err := w.bw.Write(fb)
	if err == nil {
		_, err = w.bw.Write(tail[:])
	}
	if err == nil {
		err = w.bw.Flush()
	}
	if err != nil {
		w.discard()
		return err
	}
	w.release()
	if err := w.f.Close(); err != nil {
		os.Remove(w.path + segTempExt)
		return err
	}
	return nil
}

// release hands the scratch back to the pool; the writer is finished.
func (w *Writer) release() {
	w.bw.Reset(nil)
	clear(w.enc.rows) // pin no row of an aborted block
	w.enc.rows = w.enc.rows[:0]
	scratchPool.Put(w.writerScratch)
	w.writerScratch = nil
}

// Finish commits the segment as a round of one and returns it open,
// parsed back from the file.
func (w *Writer) Finish() (*Segment, error) {
	if err := w.seal(); err != nil {
		return nil, err
	}
	if err := commitRound([]string{w.path}); err != nil {
		return nil, err
	}
	return OpenSegment(w.path)
}

// open returns the segment of a sealed writer whose round has committed,
// built from the footer the writer still holds instead of read back from
// the file it just wrote (OpenSegment stays the way every other segment
// is opened, recovery included).
func (w *Writer) open() (*Segment, error) {
	f, err := os.Open(w.path)
	if err != nil {
		return nil, err
	}
	meta := w.meta
	s := &Segment{
		path: w.path, f: f, meta: &meta, colIDs: w.colIDs, size: w.size,
		footOff: meta.DataLen, version: SegVersion, mu: make(chan struct{}, 1),
	}
	if err := s.buildTree(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// Abort discards the partially written segment.
func (w *Writer) Abort() {
	if !w.done {
		w.discard()
		w.done = true
	}
}

func (w *Writer) discard() {
	w.release()
	w.f.Close()
	os.Remove(w.path + segTempExt)
}

// Segment is an open, immutable segment. Resident segments share one
// file descriptor through ReadAt, so any number of iterators can stream
// concurrently; a segment retired by compaction is unlinked immediately
// and its descriptor closed once the last open iterator finishes.
//
// A tiered segment's data region lives in the object store. Its footer
// (sparse index, zone maps, Blooms, Merkle leaves) stays resident, so
// pruning never fetches; block reads go through the tier's verified,
// cached read path. Eviction fencing: iterators that acquired before the
// eviction keep reading the unlinked local file through the still-open
// descriptor (localRefs tracks them); the descriptor closes when the
// last of them finishes, and iterators acquired after the eviction fetch
// from the object store.
type Segment struct {
	path string
	f    *os.File // nil once fClosed (stub-opened or drained tiered)
	meta *footerMeta
	// colIDs maps the footer name table's local indexes to process-wide
	// dictionary IDs, resolved once at open and shared by all iterators.
	colIDs  []uint32
	size    int64 // logical segment size (object size once tiered)
	footOff int64 // file offset of the footer (stub layout source)
	version int

	// Tiering state. tree/root are built at open from the footer's leaves;
	// tier/tierKey are set once the segment has a manifest-recorded,
	// verified object-store copy.
	tree    *objstore.Tree
	root    [objstore.HashLen]byte
	tier    *objstore.Tier
	tierKey string

	mu        chan struct{} // 1-buffered semaphore guarding the fields below
	refs      int
	localRefs int // iterators reading the local data file
	tiered    bool
	fClosed   bool
	doomed    bool
	closed    bool
}

// ErrVersion marks a segment or commitlog record written by a codec this
// build no longer reads.
var ErrVersion = errors.New("persist: incompatible codec version")

// parseSegmentFile decodes the header, trailer, and footer of an open
// segment (or footer stub — same layout minus the data region).
func parseSegmentFile(f *os.File, path string, size int64) (meta *footerMeta, colIDs []uint32, version int, footOff int64, err error) {
	if size < int64(len(segHeader))+trailerLen {
		return nil, nil, 0, 0, fmt.Errorf("persist: %s: too short for a segment", path)
	}
	var head [len(segHeader)]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, nil, 0, 0, err
	}
	switch string(head[:]) {
	case segHeader:
		version = SegVersion
	case segHeaderV4:
		version = segVersionV4
	case "HPSEG001", "HPSEG002", "HPSEG003":
		return nil, nil, 0, 0, fmt.Errorf("%w: %s was written by segment codec v%c; this build reads v%d and v%d — compact the directory with a build that reads it, or re-ingest the data",
			ErrVersion, path, head[7], segVersionV4, SegVersion)
	default:
		return nil, nil, 0, 0, fmt.Errorf("persist: %s: bad segment header %q", path, head)
	}
	var tail [trailerLen]byte
	if _, err := f.ReadAt(tail[:], size-trailerLen); err != nil {
		return nil, nil, 0, 0, err
	}
	if string(tail[8:]) != segTrailer {
		return nil, nil, 0, 0, fmt.Errorf("persist: %s: bad segment trailer", path)
	}
	footLen := int64(binary.LittleEndian.Uint32(tail[0:4]))
	footCRC := binary.LittleEndian.Uint32(tail[4:8])
	if footLen > maxFooterLen || size-trailerLen-footLen < int64(len(segHeader)) {
		return nil, nil, 0, 0, fmt.Errorf("persist: %s: implausible footer length %d", path, footLen)
	}
	footOff = size - trailerLen - footLen
	fb := make([]byte, footLen)
	if _, err := f.ReadAt(fb, footOff); err != nil {
		return nil, nil, 0, 0, err
	}
	if crc32.Checksum(fb, crcTable) != footCRC {
		return nil, nil, 0, 0, fmt.Errorf("persist: %s: footer checksum mismatch", path)
	}
	meta, err = decodeFooter(fb)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("persist: %s: footer decode: %w", path, err)
	}
	colIDs = make([]uint32, len(meta.ColNames))
	for i, name := range meta.ColNames {
		// Intern a copy, not the zero-copy footer substring — the dictionary
		// outlives the segment and must not pin the footer buffer.
		if id, ok := defaultDict.Lookup(name); ok {
			colIDs[i] = id
		} else {
			colIDs[i] = defaultDict.Intern(strings.Clone(name))
		}
		meta.ColNames[i] = defaultDict.Name(colIDs[i]) // canonical instance
	}
	// Zone maps reference the footer name table on disk; remap to
	// process-wide dictionary IDs and restore the sorted-by-ID invariant
	// (this process's ID order need not match the writer's).
	for i := range meta.Blocks {
		zones := meta.Blocks[i].Zones
		for j := range zones {
			zones[j].ID = colIDs[zones[j].ID]
		}
		sortZones(zones)
	}
	return meta, colIDs, version, footOff, nil
}

// OpenSegment opens a segment file and decodes its footer.
func OpenSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	meta, colIDs, version, footOff, err := parseSegmentFile(f, path, size)
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &Segment{
		path: path, f: f, meta: meta, colIDs: colIDs, size: size,
		footOff: footOff, version: version, mu: make(chan struct{}, 1),
	}
	if err := s.buildTree(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// buildTree materializes the Merkle tree from the footer's leaf array
// (segments with at least one block).
func (s *Segment) buildTree() error {
	if len(s.meta.Leaves) == 0 {
		return nil
	}
	tree, err := objstore.NewTree(s.meta.Leaves)
	if err != nil {
		return fmt.Errorf("persist: %s: %w", s.path, err)
	}
	s.tree = tree
	s.root = tree.Root()
	return nil
}

// stubPath returns the footer-stub path corresponding to the segment's
// data file path.
func stubPath(segPath string) string {
	return strings.TrimSuffix(segPath, segFileExt) + segStubExt
}

// OpenTieredStub opens an evicted segment from its footer stub: the
// footer parses exactly like a full segment (offsets in the sparse index
// refer to the object's data region), the Merkle root must match the
// manifest-pinned root, and all block reads go through tier. The stub's
// descriptor is closed immediately — nothing local remains to read.
func OpenTieredStub(path string, tier *objstore.Tier, e objstore.ManifestEntry) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	meta, colIDs, version, footOff, err := parseSegmentFile(f, path, st.Size())
	f.Close()
	if err != nil {
		return nil, err
	}
	if meta.Seq != e.Seq {
		return nil, fmt.Errorf("persist: %s: stub seq %d does not match manifest seq %d", path, meta.Seq, e.Seq)
	}
	s := &Segment{
		path: strings.TrimSuffix(path, segStubExt) + segFileExt, f: nil,
		meta: meta, colIDs: colIDs, size: e.Size, footOff: footOff,
		version: version, tier: tier, tierKey: e.Key,
		tiered: true, fClosed: true, mu: make(chan struct{}, 1),
	}
	if err := s.buildTree(); err != nil {
		return nil, err
	}
	if s.root != e.Root {
		return nil, fmt.Errorf("%w: %s: stub merkle root does not match manifest", objstore.ErrIntegrity, path)
	}
	return s, nil
}

// fetchStub rebuilds a missing footer stub from the object store (the
// local directory lost both the data file and the stub — e.g. a fresh
// disk recovering from the manifest) under path's temp name, for the
// caller's round to commit. Three ranged reads: the trailer to size the
// footer, the header, the footer.
func fetchStub(ctx context.Context, tier *objstore.Tier, e objstore.ManifestEntry, path string) error {
	tail, err := tier.Store().ReadRange(ctx, e.Key, e.Size-trailerLen, trailerLen)
	if err != nil {
		return fmt.Errorf("persist: fetch stub trailer for %s: %w", e.Key, err)
	}
	footLen := int64(binary.LittleEndian.Uint32(tail[0:4]))
	if footLen > maxFooterLen || e.Size-trailerLen-footLen < int64(len(segHeader)) {
		return fmt.Errorf("%w: %s: implausible footer length %d in fetched trailer", objstore.ErrIntegrity, e.Key, footLen)
	}
	head, err := tier.Store().ReadRange(ctx, e.Key, 0, int64(len(segHeader)))
	if err != nil {
		return fmt.Errorf("persist: fetch stub header for %s: %w", e.Key, err)
	}
	foot, err := tier.Store().ReadRange(ctx, e.Key, e.Size-trailerLen-footLen, footLen)
	if err != nil {
		return fmt.Errorf("persist: fetch stub footer for %s: %w", e.Key, err)
	}
	if crc32.Checksum(foot, crcTable) != binary.LittleEndian.Uint32(tail[4:8]) {
		return fmt.Errorf("%w: %s: fetched footer fails its checksum", objstore.ErrIntegrity, e.Key)
	}
	return writeStub(path, head, foot, tail)
}

// writeStub writes header+footer+trailer under path's temp name, unsynced.
func writeStub(path string, head, foot, tail []byte) error {
	err := os.WriteFile(path+segTempExt, slices.Concat(head, foot, tail), 0o644)
	if err != nil {
		os.Remove(path + segTempExt)
	}
	return err
}

// sortZones sorts a block's zone maps by dictionary ID (insertion sort;
// the set is small and near-sorted).
func sortZones(zs []ColZone) {
	for i := 1; i < len(zs); i++ {
		z := zs[i]
		j := i - 1
		for j >= 0 && zs[j].ID > z.ID {
			zs[j+1] = zs[j]
			j--
		}
		zs[j+1] = z
	}
}

// Table returns the table the segment belongs to.
func (s *Segment) Table() string { return s.meta.Table }

// Partition returns the partition key the segment belongs to.
func (s *Segment) Partition() string { return s.meta.Partition }

// Seq returns the segment's creation sequence number (older = smaller).
func (s *Segment) Seq() uint64 { return s.meta.Seq }

// Rows returns the row count.
func (s *Segment) Rows() int { return s.meta.Rows }

// Size returns the file size in bytes.
func (s *Segment) Size() int64 { return s.size }

// KeyRange returns the inclusive clustering-key bounds.
func (s *Segment) KeyRange() (min, max string) { return s.meta.MinKey, s.meta.MaxKey }

// TimeRange returns the clustering-time bounds decoded from the keys
// (zero when the keys carry no timestamps).
func (s *Segment) TimeRange() (min, max int64) { return s.meta.MinTS, s.meta.MaxTS }

// MaxWriteTS returns the largest logical write timestamp in the segment.
func (s *Segment) MaxWriteTS() int64 { return s.meta.MaxWriteTS }

// BlockStats returns the per-block statistics, parallel to the sparse
// index. The slice and its contents are
// shared with the segment and must be treated as read-only.
func (s *Segment) BlockStats() []BlockStats { return s.meta.Blocks }

// Overlaps reports whether any key of the segment can fall within rg — the
// footer-based pruning check that lets time-sliced scan tasks skip whole
// files.
func (s *Segment) Overlaps(rg Range) bool {
	if s.meta.Rows == 0 {
		return false
	}
	if rg.From != "" && s.meta.MaxKey < rg.From {
		return false
	}
	if rg.To != "" && s.meta.MinKey >= rg.To {
		return false
	}
	return true
}

// Verify re-reads the local data region and checks it against the footer
// CRC. Evicted segments verify per-block at fetch time instead.
func (s *Segment) Verify() error {
	s.lock()
	noLocal := s.tiered || s.fClosed
	s.unlock()
	if noLocal {
		return nil
	}
	h := crc32.New(crcTable)
	if _, err := io.Copy(h, io.NewSectionReader(s.f, 0, s.meta.DataLen)); err != nil {
		return err
	}
	if h.Sum32() != s.meta.DataCRC {
		return fmt.Errorf("persist: %s: data checksum mismatch", s.path)
	}
	return nil
}

func (s *Segment) lock()   { s.mu <- struct{}{} }
func (s *Segment) unlock() { <-s.mu }

// ErrRetired is returned by Scan on a segment that compaction has already
// replaced. Callers holding a stale segment list should re-fetch it (the
// replacement holds the same rows) and retry.
var ErrRetired = errors.New("persist: segment retired")

// acquire registers an iterator; it fails once the segment is retired.
// The returned flag reports whether this iterator reads the local data
// file (true) or fetches blocks through the tier (false); it must be
// passed back to release.
func (s *Segment) acquire() (local bool, err error) {
	s.lock()
	defer s.unlock()
	if s.closed || s.doomed {
		return false, fmt.Errorf("%w: %s", ErrRetired, s.path)
	}
	s.refs++
	local = !s.tiered
	if local {
		s.localRefs++
	}
	return local, nil
}

// release drops an iterator reference, completing a pending retire when
// the last reader finishes and closing an evicted segment's descriptor
// when its last local reader drains.
func (s *Segment) release(local bool) {
	s.lock()
	s.refs--
	if local {
		s.localRefs--
	}
	var closeF bool
	if s.doomed && s.refs == 0 && !s.closed {
		s.closed = true
		closeF = !s.fClosed
		s.fClosed = true
	} else if s.tiered && local && s.localRefs == 0 && !s.fClosed {
		// Last pre-eviction reader done: the unlinked data file's
		// descriptor can finally go.
		closeF = true
		s.fClosed = true
	}
	s.unlock()
	if closeF {
		s.f.Close()
	}
}

// retire unlinks the local files and closes the descriptor as soon as no
// iterator is using it (immediately when idle). Used by compaction after
// the merged replacement is durable. Object-store cleanup of tiered
// segments is the store's job (it owns the manifest).
func (s *Segment) retire() {
	s.lock()
	already := s.doomed
	s.doomed = true
	done := s.refs == 0 && !s.closed
	if done {
		s.closed = true
	}
	closeF := done && !s.fClosed
	if done {
		s.fClosed = true
	}
	s.unlock()
	if !already {
		os.Remove(s.path)
		os.Remove(stubPath(s.path))
	}
	if closeF {
		s.f.Close()
	}
}

// Close closes the descriptor of a non-doomed segment (store shutdown).
func (s *Segment) Close() error {
	s.lock()
	defer s.unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.fClosed {
		return nil
	}
	s.fClosed = true
	return s.f.Close()
}

// SetTier records that the segment has a verified, manifest-recorded
// copy in the object store under key. The local data file remains the
// read path until EvictLocal.
func (s *Segment) SetTier(tier *objstore.Tier, key string) {
	s.lock()
	s.tier = tier
	s.tierKey = key
	s.unlock()
}

// Uploaded reports whether the segment has a manifest-recorded
// object-store copy.
func (s *Segment) Uploaded() bool {
	s.lock()
	defer s.unlock()
	return s.tierKey != ""
}

// Tiered reports whether the local data file has been released (reads of
// this segment fetch blocks from the object store).
func (s *Segment) Tiered() bool {
	s.lock()
	defer s.unlock()
	return s.tiered
}

// TierKey returns the object key of an uploaded segment ("" otherwise).
func (s *Segment) TierKey() string {
	s.lock()
	defer s.unlock()
	return s.tierKey
}

// MerkleRoot returns the segment's Merkle root over its data blocks.
// ok is false for a segment without rows.
func (s *Segment) MerkleRoot() (root [objstore.HashLen]byte, ok bool) {
	if s.tree == nil {
		return root, false
	}
	return s.root, true
}

// CanTier reports whether the segment is eligible for upload/eviction:
// it has at least one block.
func (s *Segment) CanTier() bool { return s.tree != nil }

// writeStub writes the segment's footer stub under its temp name from the
// open descriptor (reads race nothing: the file is immutable). The stub
// becomes the point of no local return once its round's barrier has
// passed and markEvicted has run, so the caller must have uploaded,
// verified AND durably manifest-recorded the object first.
func (s *Segment) writeStub() error {
	head := make([]byte, len(segHeader))
	if _, err := s.f.ReadAt(head, 0); err != nil {
		return err
	}
	// Footer and trailer are contiguous at the end of the file.
	foot := make([]byte, s.size-s.footOff)
	if _, err := s.f.ReadAt(foot, s.footOff); err != nil {
		return err
	}
	return writeStub(stubPath(s.path), head, foot, nil)
}

// markEvicted releases the local data file of a segment whose stub is
// durable: new iterators fetch from the object store, iterators already
// open keep reading the unlinked file through the shared descriptor, and
// the descriptor closes when the last of them finishes.
func (s *Segment) markEvicted() {
	s.lock()
	s.tiered = true
	closeF := s.localRefs == 0 && !s.fClosed
	if closeF {
		s.fClosed = true
	}
	s.unlock()
	os.Remove(s.path)
	if closeF {
		s.f.Close()
	}
}

// startBlock returns the index of the first block that can contain keys
// >= from: the block whose sampled key is the greatest one <= from.
func (s *Segment) startBlock(from string) int {
	ix := s.meta.Index
	if from == "" || len(ix) == 0 {
		return 0
	}
	// First sample with Key > from; start at its predecessor's block.
	i := sort.Search(len(ix), func(i int) bool { return ix[i].Key > from })
	if i == 0 {
		return 0
	}
	return i - 1
}

// blockBounds returns the file-offset range of block i.
func (s *Segment) blockBounds(i int) (lo, hi int64) {
	ix := s.meta.Index
	lo = ix[i].Off
	if i+1 < len(ix) {
		return lo, ix[i+1].Off
	}
	return lo, s.meta.DataLen
}

// ScanConfig parameterizes a pruned scan (see ScanPruned and ScanBatches).
// The zero value scans every in-range block and decodes every column.
type ScanConfig struct {
	// Pruner, when non-nil, is consulted before each block read: a pruned
	// block is skipped without touching the disk.
	Pruner Pruner
	// Shadows are the inclusive key ranges of the scan's OTHER merge
	// inputs (sibling segments, memtable). A block whose key range
	// overlaps a shadow is never pruned: a duplicate clustering key may
	// live in both inputs, and last-write-wins reconciliation must see
	// this block's version even when it fails the predicate — otherwise a
	// losing version from the other input could surface. Time-series
	// flushes produce disjoint segments, so in steady state shadows cost
	// nothing.
	Shadows []KeyRange
	// Stats, when non-nil, accumulates block read/prune counters.
	Stats *PruneStats
	// Project lists the dictionary IDs of the columns a batch scan
	// materializes (nil = every column; empty = keys and write timestamps
	// only). Other columns are hopped over, chunk by chunk. Row scans
	// (ScanPruned) always decode every column.
	Project []uint32
}

// Scan streams the segment's rows within rg in clustering-key order.
func (s *Segment) Scan(rg Range) (Iterator, error) {
	return s.ScanPruned(rg, ScanConfig{})
}
