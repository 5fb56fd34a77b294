package persist

import (
	"math/bits"
	"strconv"
	"sync/atomic"
)

// Block statistics. Every segment block (one sparse-index
// stride, up to indexEvery rows) carries a zone map — the block's key and
// WriteTS bounds plus per-column min/max for a configurable hot set — and
// a Bloom filter over the block's (column name, value) cells. Scans that
// carry a Pruner consult these before reading a block off disk, so a
// selective predicate skips the read AND the decode of every block that
// provably contains no matching row.
//
// The statistics describe non-empty cells only: the expression engine
// treats an absent or empty column as matching nothing, so a zone map
// over the non-empty values is exactly the set a predicate can match.
// All pruning is conservative — a block is skipped only when no row in it
// can satisfy the predicate, regardless of merge order (callers
// additionally fence pruning with shadow ranges, see ScanConfig).

// DefaultZoneColumns is the hot set of columns that get per-block min/max
// zone maps in every segment a store writes. It covers the data model's
// discriminator and metric columns; Writer.SetZoneColumns picks another
// set for a test segment.
var DefaultZoneColumns = []string{"type", "source", "amount", "app", "user", "jobid"}

// ColZone is the per-block zone map of one hot column.
type ColZone struct {
	// ID is the column's process-wide dictionary ID (resolved at segment
	// open; on disk the footer stores the segment-local name index).
	ID uint32
	// MinVal/MaxVal bound the block's non-empty values bytewise.
	MinVal, MaxVal string
	// Cells counts rows of the block carrying a non-empty value.
	Cells int
	// NumCells counts cells whose value parses as a decimal number;
	// MinNum/MaxNum bound those numerically. A numeric-literal predicate
	// can only match numeric cells, so NumCells == 0 alone prunes it.
	NumCells       int
	MinNum, MaxNum float64
}

// BlockStats is the zone map + Bloom filter of one segment block.
type BlockStats struct {
	// MinKey/MaxKey bound the block's clustering keys (inclusive).
	MinKey, MaxKey string
	// MinWriteTS/MaxWriteTS bound the block's logical write timestamps.
	MinWriteTS, MaxWriteTS int64
	// Rows is the block's row count.
	Rows int
	// Zones holds one entry per configured hot column, sorted by ID —
	// including absent columns (Cells == 0), which is itself the strongest
	// pruning signal for predicates on them.
	Zones []ColZone
	// bloom indexes the block's (column name, value) cells.
	bloom bloom
	// fold is the block's record in the footer's fold section. A segment
	// keeps the records beside its footer statistics, which then read the
	// same for both codec generations, and attaches one only to the copy a
	// scan offers its Pruner; nil when the footer has no fold section.
	fold *blockFold
}

// blockFold is a block's record in the footer's fold and group sections:
// the facts a fold of occurrence counts takes the block whole from.
type blockFold struct {
	timed  bool        // every key carries a clustering timestamp (tsOf >= 0)
	counts []colCounts // one per hot column with numeric cells
	// group is the block's group list of GroupColumn, where the block codes
	// the column into its section dictionary, every amount is a count and
	// the column holds more than one value; nil otherwise.
	group *groupList
}

// groupList counts a block's rows by their code in one column's section
// dictionary: each code set in present holds one row whose count is 1,
// unless an exception says otherwise.
type groupList struct {
	id, local uint32       // dictionary ID and name-table index
	dict      *sectionDict // what the codes index
	present   [sectionDictMax / 64]uint64
	exc       []groupExc // by ascending code
}

// groupExc is a code of a group list whose rows are not one row counting 1.
type groupExc struct {
	sum  int64 // of the rows' counts, wrapping as int64 does
	rows int32
	code uint8
}

// colCounts tells of one column's cells in a block how many PosInt
// accepts and their sum, wrapping as int64 does.
type colCounts struct {
	id    uint32 // dictionary ID (in the footer, a name-table index until open)
	cells int
	sum   int64
}

// TimeBounds returns the clustering timestamps of the block's first and
// last key. ok is false unless the footer records that every key of the
// block carries one; keys then ascend with their timestamps, so every row
// lies in [min, max].
func (b *BlockStats) TimeBounds() (min, max int64, ok bool) {
	if b.fold == nil || !b.fold.timed {
		return 0, 0, false
	}
	return tsOf(b.MinKey), tsOf(b.MaxKey), true
}

// Counts returns how many of the block's cells of column id are
// occurrence counts (PosInt accepts them) and their sum, wrapping as int64
// does: 0, 0 where the footer does not say.
func (b *BlockStats) Counts(id uint32) (cells int, sum int64) {
	if b.fold != nil {
		for _, c := range b.fold.counts {
			if c.id == id {
				return c.cells, c.sum
			}
		}
	}
	return 0, 0
}

// Only returns the value every row of the block holds in column id, where
// its zone map says there is one: such a block has no group list.
func (b *BlockStats) Only(id uint32) (string, bool) {
	z := b.Zone(id)
	if z == nil || z.Cells != b.Rows || z.MinVal != z.MaxVal {
		return "", false
	}
	return z.MinVal, true
}

// Group is one code of a block's group list: the rows that hold it and
// the sum of their counts, wrapping as int64 does.
type Group struct {
	Code uint8
	Rows int
	Sum  int64
}

// Groups reads a block's group list code by code, ascending.
type Groups struct {
	g    *groupList
	word int    // the word of g.present being read
	left uint64 // its codes not read yet
	exc  int    // the next exception
}

// Next returns the next code of the list; ok is false past the last.
func (it *Groups) Next() (g Group, ok bool) {
	for it.left == 0 {
		if it.word++; it.word >= len(it.g.present) {
			return Group{}, false
		}
		it.left = it.g.present[it.word]
	}
	code := it.word*64 + bits.TrailingZeros64(it.left)
	it.left &= it.left - 1
	g = Group{Code: uint8(code), Rows: 1, Sum: 1}
	if it.exc < len(it.g.exc) && int(it.g.exc[it.exc].code) == code {
		e := it.g.exc[it.exc]
		g.Rows, g.Sum = int(e.rows), e.sum
		it.exc++
	}
	return g, true
}

// Groups returns the block's group list of column id and the section
// dictionary its codes index: how many of the block's rows hold each code
// and the sum of their counts. ok is false where the footer has no list
// — the block must be read, unless Only tells its one value; every amount
// of a block with a list is a count.
func (b *BlockStats) Groups(id uint32) (it Groups, dict []string, ok bool) {
	g := b.groups(id)
	if g == nil {
		return Groups{}, nil, false
	}
	return g.read(), g.dict.vals, true
}

func (b *BlockStats) groups(id uint32) *groupList {
	if b.fold == nil || b.fold.group == nil || b.fold.group.id != id {
		return nil
	}
	return b.fold.group
}

func (g *groupList) read() Groups { return Groups{g: g, word: -1} }

// Zone returns the zone map for a column ID, or nil when the column is
// not in the segment's hot set.
func (b *BlockStats) Zone(id uint32) *ColZone {
	for i := range b.Zones {
		if b.Zones[i].ID == id {
			return &b.Zones[i]
		}
		if b.Zones[i].ID > id {
			break
		}
	}
	return nil
}

// MayContain reports whether the block may hold a cell whose
// BloomHash is (h1, h2). False means definitely absent — equality
// predicates prune on it. Blocks written without a filter report true for
// everything.
func (b *BlockStats) MayContain(h1, h2 uint64) bool { return b.bloom.has(h1, h2) }

// Pruner decides from a block's statistics whether a scan may skip the
// block entirely. PruneBlock must return true only when NO row of the
// block can satisfy the caller's predicate, or when the caller has
// accounted for every row of the block from its statistics (a fold that
// takes the block whole); implementations unsure about a block must
// return false. A block another merge input could shadow is never offered
// (see ScanConfig.Shadows), so a skipped block's rows are exactly the rows
// the scan would have read from it. The same Pruner is shared by every
// iterator of a scan and must be safe for concurrent use (the planner's
// pruners are immutable after construction); a pruner that keeps state
// serves one scan, whose iterators one goroutine drains.
type Pruner interface {
	PruneBlock(b *BlockStats) bool
}

// Taker is the Pruner through which a fold task takes blocks whole. A
// block inside Range whose every cell of CountColumn is an occurrence
// count, and which Take accepts, is added to the task's accumulator from
// its footer and skipped: never read, fetched or decoded. The store offers
// only blocks no other merge input shadows, so the rows taken are exactly
// the rows the scan would have folded. A Taker serves one scan task.
type Taker struct {
	// Range is the task's key range; an open To is allowed.
	Range Range
	// Take adds b, whose counts sum to sum (wrapping as int64 does), to the
	// fold's accumulator from its footer, or reports false — the
	// accumulator unchanged — where the fold cannot place it without rows.
	Take func(b *BlockStats, sum int64) bool
	// Rows and Blocks tally what the Taker took.
	Rows, Blocks int
}

func (t *Taker) PruneBlock(b *BlockStats) bool {
	if b.MinKey < t.Range.From || t.Range.To != "" && b.MaxKey >= t.Range.To {
		return false
	}
	counts, sum := b.Counts(countColID)
	if counts != b.Rows || !t.Take(b, sum) {
		return false
	}
	t.Rows += b.Rows
	t.Blocks++
	return true
}

// PruneStats accumulates block-level counters across the (possibly
// concurrent) iterators of one scan.
type PruneStats struct {
	// BlocksRead counts blocks read and decoded.
	BlocksRead atomic.Int64
	// BlocksPruned counts blocks skipped by zone maps / Bloom filters.
	BlocksPruned atomic.Int64
}

// KeyRange is an inclusive clustering-key interval, used to describe the
// key coverage of a scan's other merge inputs (see ScanConfig.Shadows).
type KeyRange struct {
	Min, Max string
}

func (kr KeyRange) overlaps(min, max string) bool {
	return kr.Max >= min && kr.Min <= max
}

// --- Bloom filter ---

// The filter is a standard double-hashing Bloom filter over FNV-1a: cell
// i probes bit (h1 + i*h2) mod m. Sizing is bloomBitsPerCell bits per
// distinct inserted cell with bloomHashes probes (~1% false positives):
// a 64-row event block of ~8 columns holds ~150 distinct cells, so its
// filter costs ~190 bytes.
// Hashes cover the column NAME and value (never the process-local
// dictionary ID), so filters are portable across processes.
const (
	bloomBitsPerCell = 10
	bloomHashes      = 7
	bloomMinBits     = 64
)

// bloom is an immutable encoded Bloom filter. bits is kept as a string so
// decoding a footer stays zero-copy.
type bloom struct {
	bits string
	k    uint32
}

func (f bloom) has(h1, h2 uint64) bool {
	m := uint64(len(f.bits)) * 8
	if m == 0 {
		return true // no filter recorded: never prune
	}
	h := h1
	for i := uint32(0); i < f.k; i++ {
		bit := h % m
		if f.bits[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
		h += h2
	}
	return true
}

// BloomHash hashes one (column name, value) cell for the block Bloom
// filters. Pruners hash their literals once at plan time and probe each
// block with the two halves.
func BloomHash(name, value string) (h1, h2 uint64) {
	return bloomHashFrom(bloomSeed(name), value)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// bloomSeed is the state of BloomHash after the column name, from which
// bloomHashFrom hashes any number of the column's values.
func bloomSeed(name string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	h ^= 0xff // separator outside both alphabets
	return h * fnvPrime64
}

func bloomHashFrom(h uint64, value string) (h1, h2 uint64) {
	for i := 0; i < len(value); i++ {
		h ^= uint64(value[i])
		h *= fnvPrime64
	}
	// Mix the upper half down for the second probe stride; force it odd so
	// the probe sequence visits distinct bits.
	return h, (h>>33 | h<<31) | 1
}

// bloomBuilder accumulates the cell hashes of one block — each distinct
// cell once — and encodes the filter, sized by their number.
type bloomBuilder struct {
	hashes [][2]uint64
}

func (bb *bloomBuilder) add(h1, h2 uint64) {
	bb.hashes = append(bb.hashes, [2]uint64{h1, h2})
}

func (bb *bloomBuilder) reset() { bb.hashes = bb.hashes[:0] }

// build encodes the filter and resets the builder.
func (bb *bloomBuilder) build() bloom {
	if len(bb.hashes) == 0 {
		return bloom{}
	}
	mbits := max(len(bb.hashes)*bloomBitsPerCell, bloomMinBits)
	mbits = (mbits + 7) &^ 7
	bits := make([]byte, mbits/8)
	m := uint64(mbits)
	for _, pair := range bb.hashes {
		h := pair[0]
		for i := 0; i < bloomHashes; i++ {
			bit := h % m
			bits[bit>>3] |= 1 << (bit & 7)
			h += pair[1]
		}
	}
	bb.reset()
	return bloom{bits: string(bits), k: bloomHashes}
}

// ParseNum parses a decimal numeric literal — optional sign, digits, an
// optional fraction — returning ok == false for anything else. It exists
// because strconv.ParseFloat allocates its error value on failure, which
// would put a per-row allocation on the predicate hot path whenever a
// cell is non-numeric. Exponents are deliberately out of scope: cell
// values in the log data model are plain counts and identifiers.
//
// The same function classifies values everywhere — expression evaluation,
// zone-map construction, and aggregation — so storage-level pruning and
// row-level filtering can never disagree about what "numeric" means.
func ParseNum(s string) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	i := 0
	neg := false
	switch s[0] {
	case '-':
		neg = true
		i++
	case '+':
		i++
	}
	if i >= len(s) {
		return 0, false
	}
	var f float64
	digits := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		f = f*10 + float64(s[i]-'0')
		i++
		digits++
	}
	if i < len(s) && s[i] == '.' {
		i++
		fracDigits := 0
		scale := 1.0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			scale /= 10
			f += float64(s[i]-'0') * scale
			i++
			fracDigits++
		}
		if fracDigits == 0 {
			return 0, false // "1." is not a number
		}
		digits += fracDigits
	}
	if digits == 0 || i != len(s) {
		return 0, false
	}
	if neg {
		f = -f
	}
	return f, true
}

// PosInt parses an occurrence count: what strconv.Atoi accepts, at least
// 1. It is the one definition of a count — the event model parses amounts
// with it and the writer sums a block's counts with it — so a fold that
// takes a block from its footer sums counts exactly what reading its rows
// would.
func PosInt(v string) (int, bool) {
	n, err := strconv.Atoi(v)
	return n, err == nil && n >= 1
}
