package persist

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Codec v6 block body. A block is the run of at most indexEvery rows
// between two sparse-index offsets, stored column by column, every chunk
// behind its length, so a reader hops over what it does not want:
//
//	uvarint nrows
//	chunk   keys     uvarint total key bytes | per row: uvarint shared-prefix
//	                 length with the previous key, uvarint suffix length, suffix
//	chunk   writeTS  mode byte | varint first | wtsDeltas: varint delta per
//	                 further row; wtsStride: the one varint delta of them all
//	uvarint ncols    columns with at least one cell in the block
//	per column, by ascending index into the segment's name table:
//	    uvarint name index | tag byte | chunk
//
// where chunk = uvarint length | bytes. A column chunk opens with an 8-byte
// little-endian presence bitmap when its tag carries encSparse (bit i set:
// row i has the cell — an explicit empty value is a present cell), and then
// holds the present cells in row order in the tag's encoding:
//
//	encConst    uvarint len | value                          every cell alike
//	encDict4    uvarint n | n × (uvarint len | value) | 4-bit codes, low nibble first
//	encDict8    the same with one code byte per cell
//	encPlain    uvarint len per cell | the values back to back
//	encFront    uvarint total value bytes | per cell: uvarint shared-prefix
//	            length with the previous cell, uvarint suffix length, suffix
//	encSection  width byte | codes into the column's section dictionary (in
//	            the footer): width 0, one code byte for every cell; 4, 4-bit
//	            codes, low nibble first; 8, a code byte per cell. A row
//	            without the cell reads the dictionary's "".
//	encTemplate a code byte per cell | per cell of code 0: uvarint len | value.
//	            Code k > 0 is the section's template k-1 (footer) filled with
//	            the row's cells of its holes, which the block carries.
//
// A v5 block is the same without the last two encodings.
const (
	encConst = iota
	encDict4
	encDict8
	encPlain
	encFront
	encSection
	encTemplate
	encKinds

	encMask   = 0x07
	encSparse = 0x08

	wtsDeltas = 0
	wtsStride = 1

	// dict4Max is the largest dictionary 4-bit codes can address.
	dict4Max = 16
	// frontMinMean is the mean cell length from which a column may be
	// front-coded: rebuilding a value in the arena costs a copy that short
	// strings do not repay.
	frontMinMean = 24
	// sectionDictMax is the largest section dictionary, and maxTemplates
	// the largest template table: a code byte addresses either.
	sectionDictMax = 256
	maxTemplates   = 255
)

// The template column is the raw message kept beside the fields cut out of
// it: its cells are coded as templates over their row's other cells. The
// amount column never fills a hole — a count of 1 would cut any digit out
// of the text.
var templateColID, holelessColID = defaultDict.Intern("raw"), defaultDict.Intern("amount")

// Presence bitmaps and dictionary codes are sized for blocks of at most 64
// rows.
var _ [64 - indexEvery]struct{}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// appendChunk appends chunk behind its length.
func appendChunk(b, chunk []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(chunk)))
	return append(b, chunk...)
}

// appendFrontCoded appends vals front-coded, each against its predecessor.
func appendFrontCoded(b []byte, total int, vals []string) []byte {
	b = binary.AppendUvarint(b, uint64(total))
	prev := ""
	for _, v := range vals {
		p := commonPrefix(prev, v)
		b = binary.AppendUvarint(b, uint64(p))
		b = binary.AppendUvarint(b, uint64(len(v)-p))
		b = append(b, v[p:]...)
		prev = v
	}
	return b
}

// blockEnc buffers the rows of the block a Writer is building and holds
// the scratch its encoding needs; it lives in the writer's pooled scratch.
type blockEnc struct {
	rows  []Row
	cols  []encCol // the block's columns, in order of first appearance
	slot  []int32  // name-table index -> index into cols + 1 (0: not in this block)
	dense []string // present cells of the column being encoded
	set   valueSet
	chunk []byte
	// dicts holds, by name-table index, each column's section dictionary so
	// far; tcodes and scodes the template and section codes of the column
	// being encoded, per present cell and per distinct value.
	dicts  []secDict
	tcodes [indexEvery]uint8
	scodes [indexEvery]uint8
	cands  []holeCand
}

// secDict is one column's section dictionary while the section is written:
// its values in code order, owned, and the code of each.
type secDict struct {
	vals  []string
	codes map[string]uint8
}

// encCol is one column of the block: vals[i] is row i's cell where bit i
// of present is set.
type encCol struct {
	local   int
	id      uint32
	present uint64
	vals    []string
}

// valueSet finds the distinct values of one column of one block: an
// open-addressing table over a hash of each value's length and ends, so an
// all-distinct column costs a probe per cell and not a search.
type valueSet struct {
	table  [2 * indexEvery]uint8 // 0 = empty, else entry index + 1
	hashes [indexEvery]uint32
	vals   [indexEvery]string // distinct values, in order of first appearance
	counts [indexEvery]int32
	codes  [indexEvery]uint8 // per cell: index of its value
	n      int
}

func endsHash(v string) uint32 {
	var a, b uint64
	if n := len(v); n >= 8 {
		a, b = le64(v), le64(v[n-8:])
	} else {
		for i := 0; i < n; i++ {
			a = a<<8 | uint64(v[i])
		}
	}
	h := (a^uint64(len(v))*0x9E3779B97F4A7C15)*0xff51afd7ed558ccd ^ b*0xc4ceb9fe1a85ec53
	return uint32(h >> 32)
}

// fill indexes cells (at most indexEvery of them).
func (s *valueSet) fill(cells []string) {
	clear(s.table[:])
	s.n = 0
	for k, v := range cells {
		h := endsHash(v)
		i := h % uint32(len(s.table))
		for {
			e := s.table[i]
			if e == 0 {
				s.table[i] = uint8(s.n + 1)
				s.hashes[s.n], s.vals[s.n], s.counts[s.n] = h, v, 1
				s.codes[k] = uint8(s.n)
				s.n++
				break
			}
			if s.hashes[e-1] == h && s.vals[e-1] == v {
				s.counts[e-1]++
				s.codes[k] = e - 1
				break
			}
			if i++; i == uint32(len(s.table)) {
				i = 0
			}
		}
	}
}

// encodeBlock appends the buffered rows to the image as one block,
// returning the bounds of the rows' write timestamps, and feeds
// the block's Bloom filter and zone maps (w.bb, w.zones) once per distinct
// value of each column. The rows are dropped.
func (w *Writer) encodeBlock() (minWTS, maxWTS int64) {
	e := &w.enc
	rows := e.rows
	n := len(rows)
	out := binary.AppendUvarint(w.img, uint64(n))

	total := 0
	e.dense = e.dense[:0]
	for _, r := range rows {
		total += len(r.Key)
		e.dense = append(e.dense, r.Key)
	}
	e.chunk = appendFrontCoded(e.chunk[:0], total, e.dense)
	out = appendChunk(out, e.chunk)

	first := rows[0].WriteTS
	minWTS, maxWTS = first, first
	stride, strided := int64(0), n > 1
	if strided {
		stride = rows[1].WriteTS - first
	}
	for i := 1; i < n; i++ {
		ts := rows[i].WriteTS
		minWTS, maxWTS = min(minWTS, ts), max(maxWTS, ts)
		strided = strided && ts-rows[i-1].WriteTS == stride
	}
	chunk := e.chunk[:0]
	if strided {
		chunk = binary.AppendVarint(binary.AppendVarint(append(chunk, wtsStride), first), stride)
	} else {
		chunk = binary.AppendVarint(append(chunk, wtsDeltas), first)
		for i := 1; i < n; i++ {
			chunk = binary.AppendVarint(chunk, rows[i].WriteTS-rows[i-1].WriteTS)
		}
	}
	out = appendChunk(out, chunk)
	e.chunk = chunk

	// Transpose the rows' cells into columns.
	e.cols = e.cols[:0]
	for i, r := range rows {
		for _, c := range r.cols {
			li := w.tb.localIdx(c)
			if li >= len(e.slot) {
				e.slot = append(e.slot, make([]int32, li+1-len(e.slot))...)
			}
			si := e.slot[li]
			if si == 0 {
				if len(e.cols) < cap(e.cols) {
					e.cols = e.cols[:len(e.cols)+1] // with the vals of an earlier block's column
				} else {
					e.cols = append(e.cols, encCol{})
				}
				si = int32(len(e.cols))
				e.slot[li] = si
				col := &e.cols[si-1]
				col.local, col.id, col.present = li, c.ID, 0
				if col.vals == nil {
					col.vals = make([]string, indexEvery)
				}
			}
			col := &e.cols[si-1]
			if col.present&(1<<i) == 0 { // of duplicate cells the first counts, as for Row.ColID
				col.present |= 1 << i
				col.vals[i] = c.Value
			}
		}
	}
	for i := 1; i < len(e.cols); i++ { // near-sorted: new names get the next index
		for j := i; j > 0 && e.cols[j].local < e.cols[j-1].local; j-- {
			e.cols[j], e.cols[j-1] = e.cols[j-1], e.cols[j]
			e.slot[e.cols[j].local], e.slot[e.cols[j-1].local] = int32(j+1), int32(j)
		}
	}
	out = binary.AppendUvarint(out, uint64(len(e.cols)))
	for i := range e.cols {
		out = w.encodeCol(out, &e.cols[i], n)
	}
	for i := range e.cols {
		col := &e.cols[i]
		e.slot[col.local] = 0
		clear(col.vals) // the scratch outlives the block; pin no row
	}
	clear(rows)
	e.rows = rows[:0]
	w.img = out
	return minWTS, maxWTS
}

// encodeCol appends one column of an n-row block in whichever encoding is
// smallest, and feeds the column's distinct values to the block statistics.
func (w *Writer) encodeCol(out []byte, col *encCol, n int) []byte {
	e := &w.enc
	cells := e.dense[:0]
	for m := col.present; m != 0; m &= m - 1 {
		cells = append(cells, col.vals[bits.TrailingZeros64(m)])
	}
	e.dense = cells
	set := &e.set
	set.fill(cells)
	w.noteColumn(col, set)

	total, plain := 0, 0
	for _, v := range cells {
		total += len(v)
		plain += uvarintLen(uint64(len(v)))
	}
	plain += total
	enc, size := encPlain, plain
	if set.n == 1 {
		enc, size = encConst, uvarintLen(uint64(len(cells[0])))+len(cells[0])
	} else {
		dict, codes := uvarintLen(uint64(set.n)), encDict8
		for _, v := range set.vals[:set.n] {
			dict += uvarintLen(uint64(len(v))) + len(v)
		}
		if dict += len(cells); set.n <= dict4Max {
			dict, codes = dict-len(cells)/2, encDict4
		}
		if dict <= plain {
			enc, size = codes, dict
		}
		if total >= frontMinMean*len(cells) {
			front := uvarintLen(uint64(total))
			prev := ""
			for _, v := range cells {
				p := commonPrefix(prev, v)
				front += uvarintLen(uint64(p)) + uvarintLen(uint64(len(v)-p)) + len(v) - p
				prev = v
			}
			if front < size {
				enc, size = encFront, front
			}
		}
	}
	if col.id == templateColID {
		if tsize := w.templateCodes(col, cells); tsize < size {
			enc, size = encTemplate, tsize
		}
	}
	ssize, width, ok := w.sectionCodes(col, set, len(cells), len(cells) < n)
	if ok && ssize <= size {
		enc = encSection
		w.addSection(col, set, len(cells) < n)
	}

	tag := byte(enc)
	chunk := e.chunk[:0]
	if len(cells) < n {
		tag |= encSparse
		chunk = binary.LittleEndian.AppendUint64(chunk, col.present)
	}
	appendValue := func(v string) {
		chunk = binary.AppendUvarint(chunk, uint64(len(v)))
		chunk = append(chunk, v...)
	}
	switch enc {
	case encConst:
		appendValue(cells[0])
	case encDict4, encDict8:
		chunk = binary.AppendUvarint(chunk, uint64(set.n))
		for _, v := range set.vals[:set.n] {
			appendValue(v)
		}
		codes := set.codes[:len(cells)]
		if enc == encDict8 {
			chunk = append(chunk, codes...)
			break
		}
		for k := 0; k < len(codes); k += 2 {
			c := codes[k]
			if k+1 < len(codes) {
				c |= codes[k+1] << 4
			}
			chunk = append(chunk, c)
		}
	case encPlain:
		for _, v := range cells {
			chunk = binary.AppendUvarint(chunk, uint64(len(v)))
		}
		for _, v := range cells {
			chunk = append(chunk, v...)
		}
	case encFront:
		chunk = appendFrontCoded(chunk, total, cells)
	case encSection:
		chunk = append(chunk, byte(width))
		codes := set.codes[:len(cells)]
		switch width {
		case 0:
			chunk = append(chunk, e.scodes[0])
		case 4:
			for k := 0; k < len(codes); k += 2 {
				c := e.scodes[codes[k]]
				if k+1 < len(codes) {
					c |= e.scodes[codes[k+1]] << 4
				}
				chunk = append(chunk, c)
			}
		case 8:
			for _, v := range codes {
				chunk = append(chunk, e.scodes[v])
			}
		}
	case encTemplate:
		codes := e.tcodes[:len(cells)]
		chunk = append(chunk, codes...)
		for k, v := range cells {
			if codes[k] == 0 {
				appendValue(v)
			}
		}
	}
	e.chunk = chunk
	out = binary.AppendUvarint(out, uint64(col.local))
	out = append(out, tag)
	return appendChunk(out, chunk)
}

// sectionCodes sets e.scodes[k] to the section code distinct value k of
// the column would take, and returns the width of the codes and what the
// column then costs: its codes and, at most once per section, the
// dictionary entries it adds — "" among them where rows lack the cell. ok
// is false when the dictionary cannot take them all.
func (w *Writer) sectionCodes(col *encCol, set *valueSet, cells int, sparse bool) (size, width int, ok bool) {
	e := &w.enc
	if col.local >= len(e.dicts) {
		e.dicts = append(e.dicts, make([]secDict, col.local+1-len(e.dicts))...)
	}
	d := &e.dicts[col.local]
	next := len(d.vals)
	_, hasEmpty := d.codes[""]
	for k, v := range set.vals[:set.n] {
		c, known := d.codes[v]
		if !known {
			if next == sectionDictMax {
				return 0, 0, false
			}
			c = uint8(next)
			next++
			size += uvarintLen(uint64(len(v))) + len(v)
		}
		hasEmpty = hasEmpty || v == ""
		e.scodes[k] = c
	}
	if sparse && !hasEmpty {
		if next == sectionDictMax {
			return 0, 0, false
		}
		size++
	}
	switch {
	case set.n == 1:
		return size + 2, 0, true
	case slices.Max(e.scodes[:set.n]) < dict4Max:
		return size + 1 + (cells+1)/2, 4, true
	}
	return size + 1 + cells, 8, true
}

// addSection files in the column's section dictionary the values of set
// that sectionCodes found new, and "" where rows lack the cell.
func (w *Writer) addSection(col *encCol, set *valueSet, sparse bool) {
	d := &w.enc.dicts[col.local]
	if d.codes == nil {
		d.codes = make(map[string]uint8)
	}
	add := func(v string) {
		if _, ok := d.codes[v]; !ok {
			v = strings.Clone(v) // the footer outlives the rows
			d.codes[v] = uint8(len(d.vals))
			d.vals = append(d.vals, v)
		}
	}
	for _, v := range set.vals[:set.n] {
		add(v)
	}
	if sparse {
		add("")
	}
}

// holeCand is a cell of a row that may fill a hole of the template of its
// template cell.
type holeCand struct {
	local uint32
	val   string
	at    int // where the hole lands in the text, once placed; -1 until
}

// templateCodes sets e.tcodes[k] to the code of the section template that
// the template column's present cell k reassembles from, adding templates
// to the section's table as it must — 0 where none fits — and returns what
// the column then costs.
func (w *Writer) templateCodes(col *encCol, cells []string) int {
	e := &w.enc
	size := len(cells)
	k := 0
	for m := col.present; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		c := w.templateOf(cells[k], i)
		e.tcodes[k] = c
		if c == 0 {
			size += uvarintLen(uint64(len(cells[k]))) + len(cells[k])
		}
		k++
	}
	return size
}

// templateOf returns the code of the section template that, filled with
// row i's cells of its holes, is v byte for byte: one of the known
// templates, tried last hit first, or one derived from v and added — 0
// where none can be.
func (w *Writer) templateOf(v string, i int) uint8 {
	if v == "" {
		return 0
	}
	for k := range w.tmpls {
		t := (w.lastTmpl + k) % len(w.tmpls)
		if w.fits(&w.tmpls[t], v, i) {
			w.lastTmpl = t
			return uint8(t + 1)
		}
	}
	if len(w.tmpls) == maxTemplates {
		return 0
	}
	t, ok := w.deriveTemplate(v, i)
	if !ok || !w.fits(&t, v, i) {
		return 0
	}
	w.tmpls = append(w.tmpls, t)
	w.lastTmpl = len(w.tmpls) - 1
	return uint8(len(w.tmpls))
}

// fits reports whether t filled with row i's cells of its holes is v. A
// hole whose column row i lacks fits nothing.
func (w *Writer) fits(t *Template, v string, i int) bool {
	if t.size > len(v) || !strings.HasPrefix(v, t.Consts[0]) {
		return false
	}
	v = v[len(t.Consts[0]):]
	e := &w.enc
	for k, local := range t.local {
		if int(local) >= len(e.slot) || e.slot[local] == 0 {
			return false
		}
		col := &e.cols[e.slot[local]-1]
		if col.present&(1<<i) == 0 || !strings.HasPrefix(v, col.vals[i]) {
			return false
		}
		v = v[len(col.vals[i]):]
		if !strings.HasPrefix(v, t.Consts[k+1]) {
			return false
		}
		v = v[len(t.Consts[k+1]):]
	}
	return v == ""
}

// deriveTemplate cuts holes in v for row i's other cells, the longest
// first, each where it first occurs in what is still constant text; the
// amount and empty cells cut none. ok is false where no cell occurs.
func (w *Writer) deriveTemplate(v string, i int) (t Template, ok bool) {
	e := &w.enc
	cands := e.cands[:0]
	for k := range e.cols {
		col := &e.cols[k]
		if col.id == templateColID || col.id == holelessColID || col.present&(1<<i) == 0 || col.vals[i] == "" {
			continue
		}
		cands = append(cands, holeCand{uint32(col.local), col.vals[i], -1})
	}
	e.cands = cands
	slices.SortFunc(cands, func(a, b holeCand) int {
		if len(a.val) != len(b.val) {
			return len(b.val) - len(a.val)
		}
		return int(a.local) - int(b.local)
	})
	// taken marks the bytes of v already cut out.
	var taken []bool
	holes := 0
	for k := range cands {
		c := &cands[k]
		for from := 0; from+len(c.val) <= len(v); {
			at := strings.Index(v[from:], c.val)
			if at < 0 {
				break
			}
			at += from
			if taken == nil || !slices.Contains(taken[at:at+len(c.val)], true) {
				if taken == nil {
					taken = make([]bool, len(v))
				}
				for j := at; j < at+len(c.val); j++ {
					taken[j] = true
				}
				c.at = at
				holes++
				break
			}
			from = at + 1
		}
	}
	if holes == 0 {
		return Template{}, false
	}
	slices.SortFunc(cands, func(a, b holeCand) int { return a.at - b.at })
	prev := 0
	for _, c := range cands {
		if c.at < 0 {
			continue
		}
		t.Consts = append(t.Consts, strings.Clone(v[prev:c.at]))
		t.local = append(t.local, c.local)
		t.Holes = append(t.Holes, w.tb.ids[c.local])
		prev = c.at + len(c.val)
	}
	t.Consts = append(t.Consts, strings.Clone(v[prev:]))
	for _, c := range t.Consts {
		t.size += len(c)
	}
	return t, true
}

// noteColumn folds one column's distinct values into the block's Bloom
// filter and, for a hot column, its zone map and count sums — once per
// value, weighted by the cells that carry it. Empty values are skipped:
// the statistics describe what a predicate can match.
func (w *Writer) noteColumn(col *encCol, set *valueSet) {
	var z *ColZone
	var counts *colCounts
	for zi, id := range w.zoneIDs {
		if id == col.id {
			z, counts = &w.zones[zi], &w.counts[zi]
		}
	}
	seed := bloomSeed(w.tb.names[col.local])
	for k, v := range set.vals[:set.n] {
		if v == "" {
			continue
		}
		cells := int(set.counts[k])
		w.bb.add(bloomHashFrom(seed, v))
		w.bb.cells += cells
		if z == nil {
			continue
		}
		if z.Cells == 0 || v < z.MinVal {
			z.MinVal = v
		}
		if z.Cells == 0 || v > z.MaxVal {
			z.MaxVal = v
		}
		z.Cells += cells
		if f, ok := ParseNum(v); ok {
			if z.NumCells == 0 || f < z.MinNum {
				z.MinNum = f
			}
			if z.NumCells == 0 || f > z.MaxNum {
				z.MaxNum = f
			}
			z.NumCells += cells
			// Inside the ParseNum test: PosInt accepts only decimal
			// integers, and Atoi allocates its error for anything else.
			if n, ok := PosInt(v); ok {
				counts.cells += cells
				counts.sum += int64(n) * int64(cells)
			}
		}
	}
}

// colChunk is one column of a block as its directory describes it.
type colChunk struct {
	id      uint32 // dictionary ID of the column
	local   uint32 // index into the segment's name table
	enc     byte
	cells   int    // present cells
	present uint64 // bit i: row i carries the column
	body    string // the encoded cells
	total   int    // encFront: bytes the rebuilt values take
	// The section's dictionary of the column (encSection) or its template
	// table (encTemplate).
	sdict *sectionDict
	tmpls []Template
}

// parsedBlock is a parsed block: the row count, the two fixed chunks and the
// column directory.
type parsedBlock struct {
	n          int
	keys, wts  string
	keyBytes   int        // bytes the rebuilt keys take
	frontBytes int        // and the values of every front-coded column
	cols       []colChunk // ascending name-table index
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("persist: block: "+format, args...)
}

// frontHeader splits a front-coded chunk of n strings into the byte total
// it declares and the coded strings. A string is at most as long as all
// suffixes together, which bounds what a corrupt total can make a reader
// allocate.
func frontHeader(chunk string, n int) (total int, body string, err error) {
	d := StringDec{s: chunk}
	t, err := d.Uvarint()
	if err != nil {
		return 0, "", err
	}
	if t > uint64(n)*uint64(len(chunk)) {
		return 0, "", fmt.Errorf("%d bytes declared for %d strings in a %d-byte chunk", t, n, len(chunk))
	}
	return int(t), chunk[d.pos:], nil
}

// parse reads the block's header and column directory, resolving name
// indexes through ids and section codes through m; dir is the directory's
// storage, reused.
func (b *parsedBlock) parse(blk string, m *footerMeta, ids []uint32, dir []colChunk) error {
	d := StringDec{s: blk}
	n, err := d.Uvarint()
	if err != nil {
		return corrupt("row count: %w", err)
	}
	if n == 0 || n > indexEvery {
		return corrupt("%d rows", n)
	}
	b.n = int(n)
	keys, err := d.String()
	if err == nil {
		b.keyBytes, b.keys, err = frontHeader(keys, b.n)
	}
	if err != nil {
		return corrupt("key chunk: %w", err)
	}
	if b.wts, err = d.String(); err != nil {
		return corrupt("write-ts chunk: %w", err)
	}
	ncols, err := d.Uvarint()
	if err != nil {
		return corrupt("column count: %w", err)
	}
	if ncols > uint64(len(ids)) {
		return corrupt("%d columns with a name table of %d", ncols, len(ids))
	}
	b.cols, b.frontBytes = dir[:0], 0
	all := ^uint64(0) >> (64 - n)
	for i := 0; i < int(ncols); i++ {
		local, err := d.Uvarint()
		if err != nil {
			return corrupt("column %d: %w", i, err)
		}
		if local >= uint64(len(ids)) {
			return corrupt("column %d references unknown column id %d (table has %d)", i, local, len(ids))
		}
		if i > 0 && uint32(local) <= b.cols[i-1].local {
			return corrupt("column %d: name index %d not ascending", i, local)
		}
		if d.Rest() == 0 {
			return corrupt("column %d: truncated", i)
		}
		tag := d.s[d.pos]
		d.pos++
		c := colChunk{id: ids[local], local: uint32(local), enc: tag & encMask, present: all}
		if c.enc >= encKinds || tag&^(encMask|encSparse) != 0 {
			return corrupt("column %d: unknown tag %#x", i, tag)
		}
		if c.body, err = d.String(); err != nil {
			return corrupt("column %d chunk: %w", i, err)
		}
		if tag&encSparse != 0 {
			if len(c.body) < 8 {
				return corrupt("column %d: truncated presence bitmap", i)
			}
			c.present, c.body = le64(c.body), c.body[8:]
			if c.present == 0 || c.present&^all != 0 {
				return corrupt("column %d: presence bitmap %#x for %d rows", i, c.present, n)
			}
		}
		c.cells = bits.OnesCount64(c.present)
		switch c.enc {
		case encSection:
			if int(local) >= len(m.Dicts) || len(m.Dicts[local].vals) == 0 {
				return corrupt("column %d: section codes where the section has no dictionary", i)
			}
			c.sdict = &m.Dicts[local]
		case encTemplate:
			if len(m.Templates) == 0 || int(local) != m.TmplCol {
				return corrupt("column %d: template codes where the section has no templates", i)
			}
			c.tmpls = m.Templates
		}
		if c.enc == encFront {
			if c.total, c.body, err = frontHeader(c.body, c.cells); err != nil {
				return corrupt("column %d: %w", i, err)
			}
			b.frontBytes += c.total
		}
		b.cols = append(b.cols, c)
	}
	if d.Rest() != 0 {
		return corrupt("%d trailing bytes", d.Rest())
	}
	return nil
}

// decodeFrontCoded rebuilds len(dst) front-coded strings of total bytes at
// the end of arena, which has room for them, and returns the arena
// extended; the strings alias it.
func decodeFrontCoded(body string, total int, dst []string, arena []byte) ([]byte, error) {
	d := StringDec{s: body}
	end := len(arena) + total
	prev := ""
	for i := range dst {
		var shared, slen uint64
		if s, p := d.s, d.pos; p+1 < len(s) && s[p] < 0x80 && s[p+1] < 0x80 {
			shared, slen, d.pos = uint64(s[p]), uint64(s[p+1]), p+2 // both lengths in one byte each
		} else {
			var err error
			if shared, err = d.Uvarint(); err == nil {
				slen, err = d.Uvarint()
			}
			if err != nil {
				return arena, err
			}
		}
		if shared > uint64(len(prev)) || slen > uint64(d.Rest()) || uint64(len(arena))+shared+slen > uint64(end) {
			return arena, fmt.Errorf("front-coded string %d: prefix %d of %d, suffix %d of %d", i, shared, len(prev), slen, d.Rest())
		}
		start := len(arena)
		arena = append(arena, prev[:shared]...)
		arena = append(arena, d.s[d.pos:d.pos+int(slen)]...)
		d.pos += int(slen)
		prev = unsafeString(arena[start:])
		dst[i] = prev
	}
	if d.Rest() != 0 || len(arena) != end {
		return arena, fmt.Errorf("front-coded strings end %d bytes early with %d bytes unread", end-len(arena), d.Rest())
	}
	return arena, nil
}

// frontTS walks len(ts) front-coded keys of total bytes as decodeFrontCoded
// would rebuild them, accepting and rejecting exactly what it does, and
// sets ts[i] to tsOf of key i without copying a byte. Of a key's first
// encodedTSLen bytes, all tsOf reads, it keeps the length of their leading
// run of digits and val[j], the value of the first j of those.
func frontTS(body string, total int, ts []int64) error {
	d := StringDec{s: body}
	var val [encodedTSLen + 1]int64
	digits, prev, sum := 0, 0, 0 // prev: the previous key's length; sum: bytes of the keys so far
	for i := range ts {
		var shared, slen uint64
		if s, p := d.s, d.pos; p+1 < len(s) && s[p] < 0x80 && s[p+1] < 0x80 {
			shared, slen, d.pos = uint64(s[p]), uint64(s[p+1]), p+2 // both lengths in one byte each
		} else {
			var err error
			if shared, err = d.Uvarint(); err == nil {
				slen, err = d.Uvarint()
			}
			if err != nil {
				return err
			}
		}
		if shared > uint64(prev) || slen > uint64(d.Rest()) || uint64(sum)+shared+slen > uint64(total) {
			return fmt.Errorf("front-coded string %d: prefix %d of %d, suffix %d of %d", i, shared, prev, slen, d.Rest())
		}
		suffix := d.s[d.pos : d.pos+int(slen)]
		d.pos += int(slen)
		prev = int(shared + slen)
		sum += prev
		if shared >= encodedTSLen {
			ts[i] = ts[i-1] // the predecessor's head; shared <= prev rules out i == 0
			continue
		}
		if digits >= int(shared) { // the key's head: shared bytes of its predecessor's, then the suffix's
			digits = int(shared)
			for _, c := range []byte(suffix[:min(len(suffix), encodedTSLen-digits)]) {
				if c -= '0'; c > 9 {
					break
				}
				val[digits+1] = val[digits]*10 + int64(c)
				digits++
			}
		}
		ts[i] = -1
		if digits == encodedTSLen {
			ts[i] = val[encodedTSLen]
		}
	}
	if d.Rest() != 0 || sum != total {
		return fmt.Errorf("front-coded strings end %d bytes early with %d bytes unread", total-sum, d.Rest())
	}
	return nil
}

// tsOf is DecodeTS without the error: -1 where key carries no timestamp.
func tsOf(key string) int64 {
	if len(key) < encodedTSLen {
		return -1
	}
	var ts int64
	for i := 0; i < encodedTSLen; i++ {
		c := key[i] - '0'
		if c > 9 {
			return -1
		}
		ts = ts*10 + int64(c)
	}
	return ts
}

// decodeWriteTS decodes the write-timestamp chunk into dst, one per row.
func decodeWriteTS(chunk string, dst []int64) error {
	if chunk == "" {
		return corrupt("empty write-ts chunk")
	}
	d := StringDec{s: chunk, pos: 1}
	ts, err := d.Varint()
	if err != nil {
		return corrupt("write-ts: %w", err)
	}
	dst[0] = ts
	switch chunk[0] {
	case wtsStride:
		stride, err := d.Varint()
		if err != nil {
			return corrupt("write-ts stride: %w", err)
		}
		for i := 1; i < len(dst); i++ {
			ts += stride
			dst[i] = ts
		}
	case wtsDeltas:
		for i := 1; i < len(dst); i++ {
			delta, err := d.Varint()
			if err != nil {
				return corrupt("write-ts of row %d: %w", i, err)
			}
			ts += delta
			dst[i] = ts
		}
	default:
		return corrupt("unknown write-ts mode %d", chunk[0])
	}
	if d.Rest() != 0 {
		return corrupt("%d trailing write-ts bytes", d.Rest())
	}
	return nil
}

// colVec is one column of a batch and where a decoded column lands:
// vec[i] is row i's value ("" where the row has no cell). For a constant or
// dictionary column, dict holds the block's distinct values over dictBuf —
// behind them one "" if some row has no cell — or, for a column in section
// codes, the section's dictionary (sdict); codes[i] indexes row i's. dict
// is empty otherwise. For a column in template form, tmpls is the
// section's template table and codes[i] > 0 names row i's template; vec
// holds the other rows' cells, and the templated ones once filled. The
// arrays are in line: a batch's columns are one allocation.
type colVec struct {
	vals   []string // the rows of vec the batch shows
	dict   []string
	sdict  *sectionDict // dict's, where it is a section's
	tmpls  []Template
	filled bool
	vec    [indexEvery]string
	codes  [indexEvery]uint8

	dictBuf [indexEvery + 1]string
}

// decode expands column c of an n-row block into v. Front-coded values are
// rebuilt in arena, which has room for them; the rest alias the block.
func (c *colChunk) decode(n int, v *colVec, arena []byte) ([]byte, error) {
	d := StringDec{s: c.body}
	vec, cells := v.vec[:n], c.cells
	v.dict, v.sdict, v.tmpls, v.filled = v.dictBuf[:0], nil, nil, false
	switch c.enc {
	case encConst, encDict4, encDict8:
		nd := uint64(1)
		if c.enc != encConst {
			var err error
			if nd, err = d.Uvarint(); err != nil {
				return arena, corrupt("dictionary size: %w", err)
			}
			if nd == 0 || nd > uint64(cells) {
				return arena, corrupt("dictionary of %d values for %d cells", nd, cells)
			}
		}
		for k := uint64(0); k < nd; k++ {
			s, err := d.String()
			if err != nil {
				return arena, corrupt("dictionary value %d: %w", k, err)
			}
			v.dict = append(v.dict, s)
		}
		codes, packed, want := v.codes[:cells], d.s[d.pos:], 0
		switch c.enc {
		case encDict8:
			want = cells
		case encDict4:
			want = (cells + 1) / 2
		}
		if len(packed) != want {
			return arena, corrupt("%d code bytes for %d cells", len(packed), cells)
		}
		switch c.enc {
		case encConst:
			clear(codes)
		case encDict8:
			copy(codes, packed)
		case encDict4:
			for k := range codes {
				codes[k] = packed[k/2] >> (k % 2 * 4) & 0x0f
			}
		}
		for k, code := range codes {
			if uint64(code) >= nd {
				return arena, corrupt("code %d beyond a dictionary of %d", code, nd)
			}
			vec[k] = v.dict[code]
		}
	case encPlain:
		// Lengths first: the value bytes start where the last length ends.
		var lens [indexEvery]int
		sum := 0
		for k := 0; k < cells; k++ {
			l, err := d.Uvarint()
			if err != nil {
				return arena, corrupt("value length: %w", err)
			}
			if l > uint64(len(c.body)) {
				return arena, corrupt("value of %d bytes in a %d-byte chunk", l, len(c.body))
			}
			lens[k] = int(l)
			sum += int(l)
		}
		if sum != d.Rest() {
			return arena, corrupt("%d value bytes where the lengths say %d", d.Rest(), sum)
		}
		pos := d.pos
		for k, l := range lens[:cells] {
			vec[k] = d.s[pos : pos+l]
			pos += l
		}
	case encFront:
		var err error
		if arena, err = decodeFrontCoded(c.body, c.total, vec[:cells], arena); err != nil {
			return arena, corrupt("%w", err)
		}
	case encSection:
		if err := c.decodeSection(v); err != nil {
			return arena, err
		}
	case encTemplate:
		if err := c.decodeTemplate(v); err != nil {
			return arena, err
		}
	}
	if cells == n {
		return arena, nil
	}
	// Spread the cells, decoded densely, over the rows that carry them;
	// back to front, so that no cell is overwritten before it moves.
	absent := uint8(len(v.dict))
	switch {
	case c.enc == encSection:
		if c.sdict.empty < 0 {
			return arena, corrupt("rows without the cell and no \"\" in a section dictionary")
		}
		absent = uint8(c.sdict.empty)
	case absent > 0:
		v.dict = append(v.dict, "")
	}
	k := cells
	for i := n - 1; i >= 0; i-- {
		if c.present&(1<<i) != 0 {
			k--
			vec[i], v.codes[i] = vec[k], v.codes[k]
		} else {
			vec[i], v.codes[i] = "", absent
		}
	}
	return arena, nil
}

// decodeSection expands the section codes of c's present cells into v.
func (c *colChunk) decodeSection(v *colVec) error {
	cells, vals := c.cells, c.sdict.vals
	if c.body == "" {
		return corrupt("empty section-code chunk")
	}
	width, packed := c.body[0], c.body[1:]
	want := 0
	switch width {
	case 0:
		want = 1
	case 4:
		want = (cells + 1) / 2
	case 8:
		want = cells
	default:
		return corrupt("section code width %d", width)
	}
	if len(packed) != want {
		return corrupt("%d section code bytes for %d cells of width %d", len(packed), cells, width)
	}
	codes := v.codes[:cells]
	for k := range codes {
		switch width {
		case 0:
			codes[k] = packed[0]
		case 4:
			codes[k] = packed[k/2] >> (k % 2 * 4) & 0x0f
		case 8:
			codes[k] = packed[k]
		}
		if int(codes[k]) >= len(vals) {
			return corrupt("section code %d past a dictionary of %d", codes[k], len(vals))
		}
		v.vec[k] = vals[codes[k]]
	}
	v.dict, v.sdict = vals, c.sdict
	return nil
}

// decodeTemplate reads the template codes of c's present cells into v and
// the cells stored whole into v.vec; the templated ones stay "" until
// filled.
func (c *colChunk) decodeTemplate(v *colVec) error {
	cells := c.cells
	if len(c.body) < cells {
		return corrupt("%d template code bytes for %d cells", len(c.body), cells)
	}
	d := StringDec{s: c.body, pos: cells}
	for k := 0; k < cells; k++ {
		code := c.body[k]
		v.codes[k], v.vec[k] = code, ""
		if int(code) > len(c.tmpls) {
			return corrupt("template code %d past a table of %d", code, len(c.tmpls))
		}
		if code > 0 {
			continue
		}
		s, err := d.String()
		if err != nil {
			return corrupt("cell %d: %w", k, err)
		}
		v.vec[k] = s
	}
	if d.Rest() != 0 {
		return corrupt("%d trailing template-chunk bytes", d.Rest())
	}
	v.tmpls = c.tmpls
	return nil
}

// templateBytes returns what the rows [lo, hi) of v, a column in template
// form decoded from a block whose directory is dir, take once filled: the
// hole of name-table index l is vecs[at[l]]. It fails where a template a
// row of the block takes has a hole column the block lacks.
func templateBytes(v *colVec, n, lo, hi int, dir []colChunk, vecs []colVec, at []int32) (int, error) {
	var checked [4]uint64 // by template code
	need := 0
	for i := 0; i < n; i++ {
		code := v.codes[i]
		if code == 0 {
			continue
		}
		t := &v.tmpls[code-1]
		if checked[code/64]&(1<<(code%64)) == 0 {
			checked[code/64] |= 1 << (code % 64)
			for _, local := range t.local {
				if k := sort.Search(len(dir), func(k int) bool { return dir[k].local >= local }); k == len(dir) || dir[k].local != local {
					return 0, corrupt("template %d has a hole in column %d, which the block lacks", code, local)
				}
			}
		}
		if i < lo || i >= hi {
			continue
		}
		need += t.size
		for _, local := range t.local {
			need += len(vecs[at[local]].vec[i])
		}
	}
	return need, nil
}

// fillTemplates reassembles the templated cells of rows [lo, hi) of v at
// the end of text, which has room for them, and returns text extended; the
// cells alias it. The hole of name-table index l is vecs[at[l]].
func fillTemplates(v *colVec, lo, hi int, text []byte, vecs []colVec, at []int32) []byte {
	for i := lo; i < hi; i++ {
		code := v.codes[i]
		if code == 0 {
			continue
		}
		t := &v.tmpls[code-1]
		start := len(text)
		text = append(text, t.Consts[0]...)
		for k, local := range t.local {
			text = append(text, vecs[at[local]].vec[i]...)
			text = append(text, t.Consts[k+1]...)
		}
		v.vec[i] = unsafeString(text[start:])
	}
	v.filled = true
	return text
}
