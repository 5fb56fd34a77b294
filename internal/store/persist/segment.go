package persist

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hpclog/internal/fsys"
	"hpclog/internal/objstore"
)

// Segment image layout (codec v6), one section of a round's data file
// (round.go), offsets relative to the section:
//
//	header  : "HPSEG006" (8 bytes)
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
// one Merkle leaf per block, the fold section: per block whether every key
// carries a timestamp and, per hot column, how many cells are occurrence
// counts and their sum (appendFoldSection) and, last, the codec section:
// the section dictionaries and the template table that the blocks' codes
// index (appendCodecSection). Files are written to a temporary name and
// renamed into place, so a segment either exists completely or not at
// all — torn writes are the commitlog's problem, never the segment
// store's.
//
// The sparse index is the block structure of the file: consecutive entries
// delimit blocks of exactly indexEvery rows (the final block may be
// short), and BlockStats[i] and Leaves[i] describe exactly the block
// starting at Index[i]. Scans read and decode one block at a time.
//
// There is one writer generation and two reader generations. A codec v5
// section (header "HPSEG005") has the same footer without the codec
// section — and with the fold section optional — the same trailer and the
// same block boundaries; its blocks use neither section codes nor
// templates. v5 sections stay readable, resident or tiered, and ordinary
// compaction rewrites them as v6. Files of codecs v1–v4 are refused at
// open with ErrVersion.
const (
	segHeader   = "HPSEG006"
	segHeaderV5 = "HPSEG005"
	segTrailer  = "HPSEGFT4"
	trailerLen  = 4 + 4 + 8
	indexEvery  = 64
	segFileExt  = ".seg"
	// segStubExt marks the footer stub of an evicted data file: per section
	// header + footer + trailer, no data region, parsed like a data file at
	// open, so zone maps, Blooms, and the sparse index stay resident.
	segStubExt   = ".sft"
	maxFooterLen = 256 << 20
)

// Segment codec generations: the one written, and the one before it, still
// read.
const (
	SegVersion   = 6
	segVersionV5 = 5
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
	// Dicts holds the section dictionary of each column that has one, by
	// name-table index (no values where none does): what encSection codes
	// index.
	Dicts []sectionDict
	// Templates is the section's template table, what the encTemplate codes
	// of column TmplCol (a name-table index) index.
	Templates []Template
	TmplCol   int
}

// sectionDict is one column's section dictionary: its values in code
// order, the code of "" — what a row without the cell reads — or -1, and
// what DictFuncs made of the values, by DictFunc.
type sectionDict struct {
	vals    []string
	empty   int
	derived *sync.Map
}

// Template is one entry of a section's template table. The cell it codes
// for is Consts[0], then the row's cell of column Holes[0], Consts[1], and
// so on: len(Consts) == len(Holes)+1. A row's template and hole cells
// reassemble its cell byte for byte.
type Template struct {
	Consts []string
	Holes  []uint32 // dictionary IDs
	local  []uint32 // name-table indexes of Holes
	size   int      // bytes of the constants
}

// appendCodecSection appends the footer's last part, v6's: the section
// dictionaries — their count, then per column by ascending name-table index
// the index, the value count and the values — and the template table: its
// count, then unless 0 the template column's name-table index and per
// template the hole count, the first constant and per hole its column's
// name-table index and the constant behind it.
func appendCodecSection(b []byte, m *footerMeta) []byte {
	appendStr := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	n := 0
	for _, d := range m.Dicts {
		if len(d.vals) > 0 {
			n++
		}
	}
	b = binary.AppendUvarint(b, uint64(n))
	for local, d := range m.Dicts {
		if len(d.vals) == 0 {
			continue
		}
		b = binary.AppendUvarint(b, uint64(local))
		b = binary.AppendUvarint(b, uint64(len(d.vals)))
		for _, v := range d.vals {
			appendStr(v)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(m.Templates)))
	if len(m.Templates) == 0 {
		return b
	}
	b = binary.AppendUvarint(b, uint64(m.TmplCol))
	for _, t := range m.Templates {
		b = binary.AppendUvarint(b, uint64(len(t.local)))
		appendStr(t.Consts[0])
		for k, local := range t.local {
			b = binary.AppendUvarint(b, uint64(local))
			appendStr(t.Consts[k+1])
		}
	}
	return b
}

// decodeCodecSection reads what appendCodecSection wrote, strictly, into
// m; hole columns stay name-table indexes until open.
func decodeCodecSection(d *StringDec, m *footerMeta) error {
	fail := func(what string, e error) error {
		return fmt.Errorf("persist: footer codec section %s: %w", what, e)
	}
	cols := uint64(len(m.ColNames))
	n, err := d.Uvarint()
	if err != nil {
		return fail("dictionaries", err)
	}
	if n > cols {
		return fail("dictionaries", fmt.Errorf("%d for %d columns", n, cols))
	}
	if n > 0 {
		m.Dicts = make([]sectionDict, cols)
	}
	prev := -1
	for i := uint64(0); i < n; i++ {
		local, err := d.Uvarint()
		if err != nil {
			return fail("dictionary column", err)
		}
		if local >= cols || int(local) <= prev {
			return fail("dictionary column", fmt.Errorf("index %d after %d, table of %d", local, prev, cols))
		}
		prev = int(local)
		size, err := d.Uvarint()
		if err != nil {
			return fail("dictionary size", err)
		}
		if size == 0 || size > sectionDictMax {
			return fail("dictionary size", fmt.Errorf("%d values", size))
		}
		sd := sectionDict{vals: make([]string, size), empty: -1, derived: new(sync.Map)}
		for k := range sd.vals {
			if sd.vals[k], err = d.String(); err != nil {
				return fail("dictionary value", err)
			}
			if sd.vals[k] == "" && sd.empty < 0 {
				sd.empty = k
			}
		}
		m.Dicts[local] = sd
	}
	nt, err := d.Uvarint()
	if err != nil {
		return fail("templates", err)
	}
	if nt > maxTemplates {
		return fail("templates", fmt.Errorf("%d templates", nt))
	}
	if nt == 0 {
		return nil
	}
	tc, err := d.Uvarint()
	if err != nil {
		return fail("template column", err)
	}
	if tc >= cols {
		return fail("template column", fmt.Errorf("index %d beyond name table (%d)", tc, cols))
	}
	m.TmplCol = int(tc)
	m.Templates = make([]Template, nt)
	for i := range m.Templates {
		t := &m.Templates[i]
		holes, err := d.Uvarint()
		if err != nil {
			return fail("template holes", err)
		}
		if holes > uint64(d.Rest()) {
			return fail("template holes", fmt.Errorf("%d holes in %d bytes", holes, d.Rest()))
		}
		t.Consts, t.local = make([]string, holes+1), make([]uint32, holes)
		for k := range t.Consts {
			if k > 0 {
				local, err := d.Uvarint()
				if err != nil {
					return fail("template hole", err)
				}
				if local >= cols || local == tc {
					return fail("template hole", fmt.Errorf("column %d of a table of %d, template column %d", local, cols, tc))
				}
				t.local[k-1] = uint32(local)
			}
			if t.Consts[k], err = d.String(); err != nil {
				return fail("template constant", err)
			}
			t.size += len(t.Consts[k])
		}
	}
	return nil
}

// appendFooter encodes the footer with the package's own codec —
// deterministic, compact, and no encoding/gob dependency — and, unless fold
// is nil, its fold section (fold parallel to m.Blocks): a v5 footer. A v6
// footer always has the fold section, and the codec section behind it.
// zoneLocal maps each block's Zones (parallel slices) to name-table
// indexes.
func appendFooter(b []byte, m *footerMeta, fold []blockFold, zoneLocal []int) []byte {
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
	if fold == nil {
		return b
	}
	return appendFoldSection(b, fold)
}

// appendFoldSection appends the facts a fold of occurrence counts takes a
// block whole from: their count, then per block a flag byte (1: every key
// carries a timestamp) and, for each of its zones with numeric cells in
// footer order, how many are counts (uvarint) and their sum (varint). v5
// footers written before it end at the leaves and decode with no fold
// facts, so their blocks are never taken.
func appendFoldSection(b []byte, fold []blockFold) []byte {
	b = binary.AppendUvarint(b, uint64(len(fold)))
	for _, f := range fold {
		flag := byte(0)
		if f.timed {
			flag = 1
		}
		b = append(b, flag)
		for _, c := range f.counts {
			b = binary.AppendUvarint(b, uint64(c.cells))
			b = binary.AppendVarint(b, c.sum)
		}
	}
	return b
}

// decodeFoldSection reads what appendFoldSection wrote, strictly: it must
// describe exactly the footer's blocks. Column IDs are the zones'
// name-table indexes, as on disk.
func decodeFoldSection(d *StringDec, m *footerMeta) ([]blockFold, error) {
	fail := func(what string, e error) error {
		return fmt.Errorf("persist: footer fold section %s: %w", what, e)
	}
	n, err := d.Uvarint()
	if err != nil {
		return nil, fail("blocks", err)
	}
	if n != uint64(len(m.Blocks)) {
		return nil, fail("blocks", fmt.Errorf("%d records for %d blocks", n, len(m.Blocks)))
	}
	fold := make([]blockFold, n)
	for i := range fold {
		flag, err := d.Raw(1)
		if err != nil {
			return nil, fail("flag", err)
		}
		if flag[0] > 1 {
			return nil, fail("flag", fmt.Errorf("block %d: flag %d", i, flag[0]))
		}
		fold[i].timed = flag[0] == 1
		for _, z := range m.Blocks[i].Zones {
			if z.NumCells == 0 {
				continue
			}
			cells, err := d.Uvarint()
			if err != nil {
				return nil, fail("counts", err)
			}
			if cells > uint64(z.NumCells) {
				return nil, fail("counts", fmt.Errorf("block %d: %d counts among %d numeric cells", i, cells, z.NumCells))
			}
			sum, err := d.Varint()
			if err != nil {
				return nil, fail("sum", err)
			}
			fold[i].counts = append(fold[i].counts, colCounts{id: z.ID, cells: int(cells), sum: sum})
		}
	}
	return fold, nil
}

// decodeFooter reverses appendFooter of a section of codec version; fold
// is nil when a v5 footer has no fold section.
func decodeFooter(fb []byte, version int) (_ *footerMeta, fold []blockFold, _ error) {
	d := NewStringDec(string(fb))
	m, err := decodeMeta(d)
	if err == nil && (d.Rest() > 0 || version == SegVersion) {
		fold, err = decodeFoldSection(d, m)
	}
	if err == nil && version == SegVersion {
		err = decodeCodecSection(d, m)
	}
	if err == nil && d.Rest() > 0 {
		err = fmt.Errorf("persist: footer: %d trailing bytes", d.Rest())
	}
	if err != nil {
		return nil, nil, err
	}
	return m, fold, nil
}

// decodeMeta decodes the footer up to its fold section.
func decodeMeta(d *StringDec) (*footerMeta, error) {
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
	if nIdx > uint64(len(d.s)) {
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

// Writer encodes sorted rows into a segment image in memory. Rows must be
// appended in strictly ascending clustering-key order (the memtable and
// the compaction merge both produce that order), and — a block is encoded
// when it is full, not row by row — must stay untouched until the append
// that follows their block's last row, or seal, returns.
type Writer struct {
	*writerScratch
	crc  uint32
	meta footerMeta
	done bool
	// colIDs is set by seal: the name table's local index → dictionary ID
	// mapping, what a segment needs beside meta to stand in for a parse of
	// the image.
	colIDs []uint32

	zoneIDs []uint32    // hot columns with per-block zone maps, sorted by ID
	zones   []ColZone   // the zone maps of the block under construction, parallel to zoneIDs
	counts  []colCounts // its counts, parallel to zoneIDs
	fold    []blockFold // the fold section, parallel to meta.Blocks

	tmpls    []Template // the section's template table so far
	lastTmpl int        // the template the last templated cell took
}

// writerScratch is the buffer space a Writer borrows from scratchPool for
// its lifetime, so a round of N segments allocates it once per worker and
// not once per segment: the segment image, the block under construction,
// the name table, the block's Bloom hashes and the leaf hasher.
type writerScratch struct {
	img   []byte
	enc   blockEnc
	tb    colTableEnc
	bb    bloomBuilder
	leafH hash.Hash
}

var scratchPool = sync.Pool{New: func() any { return &writerScratch{leafH: sha256.New()} }}

// NewWriter returns a writer of segment seq of the partition.
func NewWriter(table, pkey string, seq uint64) *Writer {
	w := &Writer{
		writerScratch: scratchPool.Get().(*writerScratch),
		meta:          footerMeta{Table: table, Partition: pkey, Seq: seq},
	}
	w.tb.reset()
	for i := range w.enc.dicts {
		d := &w.enc.dicts[i]
		d.vals = nil // the last section's footer holds them
		clear(d.codes)
	}
	w.setZoneColumnNames(DefaultZoneColumns)
	w.img = append(w.img[:0], segHeader...)
	w.crc = crc32.Update(0, crcTable, w.img)
	return w
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
	w.counts = make([]colCounts, len(w.zoneIDs))
	w.resetBlock()
}

func (w *Writer) resetBlock() {
	for i := range w.zones {
		w.zones[i] = ColZone{ID: w.zoneIDs[i]}
		w.counts[i] = colCounts{id: w.zoneIDs[i]}
	}
	w.bb.reset()
}

// finishBlock encodes the buffered rows as one block of the image and
// files its offset's companions in the footer: the Merkle leaf, the block
// statistics and the fold record. The statistics' strings are cloned
// because the rows and the zone maps reference values owned by the caller
// (compaction feeds values that alias decoded blocks of the inputs); the
// footer must not pin them.
func (w *Writer) finishBlock() {
	if len(w.enc.rows) == 0 {
		return
	}
	rows := w.enc.rows
	bs := BlockStats{
		MinKey: w.meta.Index[len(w.meta.Index)-1].Key,
		MaxKey: strings.Clone(rows[len(rows)-1].Key),
		Rows:   len(rows),
		Zones:  make([]ColZone, len(w.zones)),
	}
	fold := blockFold{timed: true}
	for _, r := range rows {
		fold.timed = fold.timed && tsOf(r.Key) >= 0
	}
	start := len(w.img)
	bs.MinWriteTS, bs.MaxWriteTS = w.encodeBlock()
	blk := w.img[start:]
	w.crc = crc32.Update(w.crc, crcTable, blk)
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
		if z.NumCells > 0 {
			fold.counts = append(fold.counts, w.counts[i])
		}
	}
	bs.bloom = w.bb.build()
	w.meta.Blocks = append(w.meta.Blocks, bs)
	w.fold = append(w.fold, fold)
	w.resetBlock()
}

// Append adds one row to the block under construction, encoding the block
// before it if that one is full.
func (w *Writer) Append(r Row) error {
	if w.done {
		return fmt.Errorf("persist: append after Finish")
	}
	if w.meta.Rows > 0 && r.Key <= w.meta.MaxKey {
		return fmt.Errorf("persist: rows out of order: %q after %q", r.Key, w.meta.MaxKey)
	}
	if len(w.enc.rows) == indexEvery {
		w.finishBlock()
	}
	if len(w.enc.rows) == 0 {
		// Cloned like the block statistics: the footer outlives the round
		// as the resident segment's metadata and must not pin the caller's
		// rows.
		w.meta.Index = append(w.meta.Index, IndexEntry{Key: strings.Clone(r.Key), Off: int64(len(w.img))})
	}
	w.enc.rows = append(w.enc.rows, r)
	w.meta.MaxKey = r.Key
	if r.WriteTS > w.meta.MaxWriteTS {
		w.meta.MaxWriteTS = r.WriteTS
	}
	w.meta.Rows++
	return nil
}

// seal encodes the last block, the footer and the trailer: the image is
// complete.
func (w *Writer) seal() {
	w.done = true
	w.finishBlock()
	w.meta.DataLen = int64(len(w.img))
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
	for local, d := range w.enc.dicts[:min(len(w.enc.dicts), len(w.tb.names))] {
		if len(d.vals) == 0 {
			continue
		}
		if w.meta.Dicts == nil {
			w.meta.Dicts = make([]sectionDict, len(w.tb.names))
		}
		w.meta.Dicts[local] = sectionDict{vals: d.vals, empty: slices.Index(d.vals, ""), derived: new(sync.Map)}
	}
	if len(w.tmpls) > 0 {
		w.meta.Templates, w.meta.TmplCol = w.tmpls, w.tb.localIdx(Col{ID: templateColID})
	}
	w.meta.ColNames = slices.Clone(w.tb.names)
	w.colIDs = slices.Clone(w.tb.ids)
	foot := len(w.img)
	fold := w.fold
	if fold == nil {
		fold = []blockFold{}
	}
	w.img = appendCodecSection(appendFooter(w.img, &w.meta, fold, zoneLocal), &w.meta)
	fb := w.img[foot:]
	crc := crc32.Checksum(fb, crcTable)
	w.img = binary.LittleEndian.AppendUint32(w.img, uint32(len(fb)))
	w.img = binary.LittleEndian.AppendUint32(w.img, crc)
	w.img = append(w.img, segTrailer...)
}

// release hands the scratch back to the pool; the writer is finished.
func (w *Writer) release() {
	clear(w.enc.rows) // pin no row of an aborted block
	w.enc.rows = w.enc.rows[:0]
	scratchPool.Put(w.writerScratch)
	w.writerScratch = nil
}

// writeTo seals the segment into the round file rf and returns it, built
// from the footer the writer holds rather than parsed back.
func (w *Writer) writeTo(rf *dataFile) (*Segment, error) {
	if w.done {
		return nil, fmt.Errorf("persist: double Finish")
	}
	w.seal()
	meta := w.meta
	s := &Segment{
		meta: &meta, fold: w.fold, colIDs: w.colIDs, size: int64(len(w.img)),
		footOff: meta.DataLen, version: SegVersion, mu: make(chan struct{}, 1),
	}
	err := s.buildTree()
	if err == nil {
		err = rf.add(s, w.img)
	}
	w.release()
	return s, err
}

// Finish writes the segment to path, a data file of one section committed
// as a round of its own, and returns it open.
func (w *Writer) Finish(path string) (*Segment, error) {
	d, err := createRound(path)
	if err != nil {
		w.Abort()
		return nil, err
	}
	seg, err := w.writeTo(d)
	return seg, d.finish([]*Segment{seg}, nil, err)
}

// Abort discards the writer and what it encoded.
func (w *Writer) Abort() {
	if !w.done {
		w.release()
		w.done = true
	}
}

// Segment is an open, immutable segment: one section of a data file,
// read through the file's shared descriptor at the section's base. A live
// resident segment holds a reference to the file and so does every
// iterator reading it, so a file that compaction reclaims or a sweep
// evicts is unlinked at once and closed when its last reader finishes.
//
// A tiered segment's data region lives in the object store, at the same
// offset in the file's object. Its footer (sparse index, zone maps,
// Blooms, Merkle leaves) stays resident, so pruning never fetches; block
// reads go through the tier's verified, cached read path. Iterators
// acquired before an eviction keep reading the local file.
type Segment struct {
	path string    // the data file's
	file *dataFile // held by each reader, resident or evicted
	base int64     // the section's offset within the data file and its object
	meta *footerMeta
	// fold is the footer's fold section, parallel to meta.Blocks with
	// dictionary IDs; nil when the footer has none.
	fold []blockFold
	// colIDs maps the footer name table's local indexes to process-wide
	// dictionary IDs, resolved once at open and shared by all iterators.
	colIDs  []uint32
	size    int64 // the section's length
	footOff int64 // section offset of the footer
	version int

	// Tiering state. tree/root are built at open from the footer's leaves;
	// tier/tierKey are set once the segment has a manifest-recorded,
	// verified object-store copy.
	tree    *objstore.Tree
	root    [objstore.HashLen]byte
	tier    *objstore.Tier
	tierKey string

	mu     chan struct{} // 1-buffered semaphore guarding the fields below
	held   bool          // the segment holds its reference to file
	tiered bool
	done   bool // retired or closed: no new iterator
}

// ErrVersion marks a segment or commitlog record written by a codec this
// build no longer reads.
var ErrVersion = errors.New("persist: incompatible codec version")

// parseSection decodes the header, trailer, and footer of the segment
// image (or footer stub — same layout minus the data region) at [base,
// base+size) of r.
func parseSection(r io.ReaderAt, path string, base, size int64) (*Segment, error) {
	if size < minSection {
		return nil, fmt.Errorf("persist: %s: too short for a segment", path)
	}
	var head [len(segHeader)]byte
	if _, err := r.ReadAt(head[:], base); err != nil {
		return nil, err
	}
	s := &Segment{path: path, size: size, mu: make(chan struct{}, 1)}
	switch string(head[:]) {
	case segHeader:
		s.version = SegVersion
	case segHeaderV5:
		s.version = segVersionV5
	case "HPSEG001", "HPSEG002", "HPSEG003", "HPSEG004":
		return nil, fmt.Errorf("%w: %s was written by segment codec v%c; this build reads v%d and v%d — compact the directory with a build that reads it, or re-ingest the data",
			ErrVersion, path, head[7], segVersionV5, SegVersion)
	default:
		return nil, fmt.Errorf("persist: %s: bad segment header %q", path, head)
	}
	var tail [trailerLen]byte
	if _, err := r.ReadAt(tail[:], base+size-trailerLen); err != nil {
		return nil, err
	}
	if string(tail[8:]) != segTrailer {
		return nil, fmt.Errorf("persist: %s: bad segment trailer", path)
	}
	footLen := int64(binary.LittleEndian.Uint32(tail[0:4]))
	footCRC := binary.LittleEndian.Uint32(tail[4:8])
	if footLen > maxFooterLen || size-trailerLen-footLen < int64(len(segHeader)) {
		return nil, fmt.Errorf("persist: %s: implausible footer length %d", path, footLen)
	}
	s.footOff = size - trailerLen - footLen
	fb := make([]byte, footLen)
	if _, err := r.ReadAt(fb, base+s.footOff); err != nil {
		return nil, err
	}
	if crc32.Checksum(fb, crcTable) != footCRC {
		return nil, fmt.Errorf("persist: %s: footer checksum mismatch", path)
	}
	meta, fold, err := decodeFooter(fb, s.version)
	if err != nil {
		return nil, fmt.Errorf("persist: %s: footer decode: %w", path, err)
	}
	s.meta, s.fold, s.colIDs = meta, fold, make([]uint32, len(meta.ColNames))
	for i, name := range meta.ColNames {
		// Intern a copy, not the zero-copy footer substring — the dictionary
		// outlives the segment and must not pin the footer buffer.
		if id, ok := defaultDict.Lookup(name); ok {
			s.colIDs[i] = id
		} else {
			s.colIDs[i] = defaultDict.Intern(strings.Clone(name))
		}
		meta.ColNames[i] = defaultDict.Name(s.colIDs[i]) // canonical instance
	}
	// Zone maps reference the footer name table on disk; remap to
	// process-wide dictionary IDs and restore the sorted-by-ID invariant
	// (this process's ID order need not match the writer's).
	for i := range meta.Blocks {
		zones := meta.Blocks[i].Zones
		for j := range zones {
			zones[j].ID = s.colIDs[zones[j].ID]
		}
		sortZones(zones)
	}
	for i := range fold {
		for j := range fold[i].counts {
			fold[i].counts[j].id = s.colIDs[fold[i].counts[j].id]
		}
	}
	for i := range meta.Templates {
		t := &meta.Templates[i]
		t.Holes = make([]uint32, len(t.local))
		for k, local := range t.local {
			t.Holes[k] = s.colIDs[local]
		}
	}
	return s, s.buildTree()
}

// OpenSegment opens one segment of the data file at path: its only one,
// or the one whose seq the file name carries — given <seq>.seg where no
// such file is, the segment of that seq in whichever file holds it.
func OpenSegment(path string) (*Segment, error) {
	seq, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(path), segFileExt), 10, 64)
	named := err == nil
	f, size, err := openSized(path)
	if errors.Is(err, fs.ErrNotExist) && named {
		if found := findSection(filepath.Dir(path), seq); found != "" {
			path = found
			f, size, err = openSized(path)
		}
	}
	if err != nil {
		return nil, err
	}
	segs, _, err := parseSections(f, size, path, func(s uint64) bool { return !named || s == seq })
	if err == nil && len(segs) != 1 {
		err = fmt.Errorf("persist: %s holds %d segments and no segment %d", path, len(segs), seq)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	(&dataFile{path: path, f: f}).own(segs, size)
	return segs[0], nil
}

// findSection returns the round file in dir whose index lists seq, or "".
func findSection(dir string, seq uint64) string {
	entries, _ := fsys.OS.ReadDir(dir)
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if !strings.HasSuffix(path, segFileExt) {
			continue
		}
		if secs, _, _ := readIndex(path); slices.ContainsFunc(secs, func(sc section) bool { return sc.seq == seq }) {
			return path
		}
	}
	return ""
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

// stubPath returns the footer-stub path of a data file path.
func stubPath(dataPath string) string {
	return strings.TrimSuffix(dataPath, segFileExt) + segStubExt
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

// Size returns the section's size in bytes.
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
	local, err := s.acquire()
	if err != nil {
		return err
	}
	defer s.release()
	if !local {
		return nil
	}
	h := crc32.New(crcTable)
	if _, err := io.Copy(h, io.NewSectionReader(s.file.f, s.base, s.meta.DataLen)); err != nil {
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

// acquire registers an iterator, holding the segment's file — the local
// one or its object — until release; it fails once the segment is
// retired. The returned flag reports whether this iterator reads the local
// data file (true) or fetches blocks through the tier (false).
func (s *Segment) acquire() (local bool, err error) {
	s.lock()
	defer s.unlock()
	if s.done {
		return false, fmt.Errorf("%w: %s", ErrRetired, s.path)
	}
	s.file.refs.Add(1)
	return !s.tiered, nil
}

// release ends an iterator.
func (s *Segment) release() { s.file.drop() }

// letGo marks the segment tiered, or done, and drops its own reference
// to the data file: the descriptor closes once no iterator reads it.
func (s *Segment) letGo(tiered, done bool) error {
	s.lock()
	held := s.held
	s.held, s.tiered, s.done = false, s.tiered || tiered, s.done || done
	s.unlock()
	if held {
		return s.file.drop()
	}
	return nil
}

// Close ends a segment at store shutdown, or one compaction replaced: no
// new iterator. The store unlinks files; tiered cleanup is its job too.
func (s *Segment) Close() error { return s.letGo(false, true) }

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

// markEvicted turns a segment whose stub is durable to the object store;
// iterators already open keep reading the local file through their hold.
func (s *Segment) markEvicted() { s.letGo(true, false) }

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

// blockBounds returns the section-offset range of block i.
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
