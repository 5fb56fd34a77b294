package persist

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Block body, codecs v8 and v9 alike. A block is the run of at most
// indexEvery rows between two sparse-index offsets, stored column by
// column, every chunk behind its length, so a reader hops over what it
// does not want:
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

// CountColumn is the column that holds each row's occurrence count: the
// footer's fold and group sections sum it, and it never fills a template's
// hole — a count of 1 would cut any digit out of the text. GroupColumn is
// the column whose values the group section counts the rows of.
const (
	CountColumn = "amount"
	GroupColumn = "source"
)

// The template column is the raw message kept beside the fields cut out of
// it: its cells are coded as templates over their row's other cells.
var (
	templateColID = defaultDict.Intern("raw")
	countColID    = defaultDict.Intern(CountColumn)
	groupColID    = defaultDict.Intern(GroupColumn)
)

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
	// counts holds the rows' occurrence counts where countable says every
	// row has one, and group the block's group list (groupsOf), if any.
	counts    [indexEvery]int64
	countable bool
	group     *groupList
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
	e.countable, e.group = w.rowCounts(n), nil
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
		// A column of one value in every row has its zone map to say so.
		one := set.n == 1 && len(cells) == n && cells[0] != ""
		if e.countable && !one && col.id == groupColID {
			e.group = w.groupsOf(col, set, n)
		}
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

// rowCounts sets e.counts to the occurrence counts of the n rows and
// reports whether every row has one: a cell of the count column, a hot
// column, that PosInt accepts. Only then does the block get a group list.
func (w *Writer) rowCounts(n int) bool {
	e := &w.enc
	if !slices.Contains(w.zoneIDs, countColID) {
		return false
	}
	for i := range e.cols {
		col := &e.cols[i]
		if col.id != countColID {
			continue
		}
		if bits.OnesCount64(col.present) != n {
			return false
		}
		for r, v := range col.vals[:n] {
			c, ok := 1, v == "1"
			if _, num := ParseNum(v); !ok && num { // Atoi allocates its error
				c, ok = PosInt(v)
			}
			if !ok {
				return false
			}
			e.counts[r] = int64(c)
		}
		return true
	}
	return false
}

// groupsOf returns the group list of col, which the block codes into its
// section dictionary: per code, the rows that hold it — a row without the
// cell holds the code of "" — and the sum of their counts.
func (w *Writer) groupsOf(col *encCol, set *valueSet, n int) *groupList {
	e := &w.enc
	var rows [sectionDictMax]int32
	var sums [sectionDictMax]int64
	g := &groupList{id: col.id, local: uint32(col.local)}
	absent, k := e.dicts[col.local].codes[""], 0
	for i := 0; i < n; i++ {
		code := absent
		if col.present&(1<<i) != 0 {
			code = e.scodes[set.codes[k]]
			k++
		}
		g.present[code/64] |= 1 << (code % 64)
		rows[code]++
		sums[code] += e.counts[i]
	}
	for wi, word := range g.present {
		for ; word != 0; word &= word - 1 {
			code := wi*64 + bits.TrailingZeros64(word)
			if rows[code] != 1 || sums[code] != 1 {
				g.exc = append(g.exc, groupExc{sum: sums[code], rows: rows[code], code: uint8(code)})
			}
		}
	}
	return g
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
		if col.id == templateColID || col.id == countColID || col.present&(1<<i) == 0 || col.vals[i] == "" {
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
		w.bb.add(bloomHashFrom(seed, v))
		if z == nil {
			continue
		}
		cells := int(set.counts[k])
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

// decodeFrontCoded walks the first len(dst) of the n front-coded strings
// of total bytes of body and rebuilds string i into dst[i] where bit i of
// sel is set, "" elsewhere; only a walk of all n checks that the chunk
// ends with the last. The selected strings go to the end of arena, which
// has room for all of them, and alias it; the arena is returned extended
// by them alone. An unselected string is walked through the arena's free
// room, where the next string overwrites it: it keeps no bytes and builds
// no string.
func decodeFrontCoded(body string, total, n int, sel uint64, dst []string, arena []byte) ([]byte, error) {
	d := StringDec{s: body}
	prev, sum := "", 0 // prev: the previous string; sum: bytes of the strings so far
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
		if shared > uint64(len(prev)) || slen > uint64(d.Rest()) || uint64(sum)+shared+slen > uint64(total) {
			return arena, fmt.Errorf("front-coded string %d: prefix %d of %d, suffix %d of %d", i, shared, len(prev), slen, d.Rest())
		}
		sum += int(shared + slen)
		start := len(arena)
		room := append(append(arena, prev[:shared]...), d.s[d.pos:d.pos+int(slen)]...)
		d.pos += int(slen)
		prev, dst[i] = unsafeString(room[start:]), ""
		if sel&(1<<i) != 0 {
			arena, dst[i] = room, prev
		}
	}
	if len(dst) == n && (d.Rest() != 0 || sum != total) {
		return arena, fmt.Errorf("front-coded strings end %d bytes early with %d bytes unread", total-sum, d.Rest())
	}
	return arena, nil
}

// frontTS walks the first len(ts) of n front-coded keys of total bytes as
// decodeFrontCoded would rebuild them, accepting and rejecting exactly what
// it does, and sets ts[i] to tsOf of key i without copying a byte. Of a key's first
// encodedTSLen bytes, all tsOf reads, it keeps the length of their leading
// run of digits and val[j], the value of the first j of those.
func frontTS(body string, total, n int, ts []int64) error {
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
	if len(ts) == n && (d.Rest() != 0 || sum != total) {
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

// decodeWriteTS decodes the write timestamps of the first len(dst) of
// the n rows of the chunk into dst; only a walk of all n checks that the
// chunk ends with the last.
func decodeWriteTS(chunk string, n int, dst []int64) error {
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
	if len(dst) == n && d.Rest() != 0 {
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

// decode expands the rows set in rows of column c of an n-row block into
// v: v.vec[i] is row i's value ("" where the row has no cell) and, for a
// column in codes or template form, v.codes[i] its code. Only those rows
// are materialised — the other rows' entries are left as they were or
// scribbled over — and front-coded values are rebuilt in arena, which has
// room for them, for those rows alone; the rest alias the block. Every
// cell's code and length is checked; a walk of strings (front-coded
// values, template cells stored whole) stops at the last row set, and only
// a walk of them all checks that the chunk ends with the last.
func (c *colChunk) decode(n int, v *colVec, arena []byte, rows uint64) ([]byte, error) {
	v.dict, v.sdict, v.tmpls, v.filled = v.dictBuf[:0], nil, nil, false
	walk := bits.OnesCount64(c.present & (1<<bits.Len64(rows) - 1)) // the cells up to the last row set
	switch c.enc {
	case encFront:
		var err error
		if arena, err = decodeFrontCoded(c.body, c.total, c.cells, cellsOf(rows, c.present), v.vec[:walk], arena); err != nil {
			return arena, corrupt("%w", err)
		}
		if c.cells == n {
			return arena, nil
		}
		// Spread the cells, decoded densely, over the rows that carry them;
		// back to front, so that no cell is overwritten before it moves.
		for i, k := bits.Len64(rows)-1, walk; i >= 0; i-- {
			if c.present&(1<<i) != 0 {
				k--
				v.vec[i] = v.vec[k]
			} else {
				v.vec[i] = ""
			}
		}
		return arena, nil
	case encTemplate:
		if len(c.body) < c.cells {
			return arena, corrupt("%d template code bytes for %d cells", len(c.body), c.cells)
		}
		// Code k is byte k; the cells stored whole follow the codes, in order.
		if top := topCode(c.body[:c.cells], 8, c.cells); top > len(c.tmpls) {
			return arena, corrupt("template code %d past a table of %d", top, len(c.tmpls))
		}
		d := StringDec{s: c.body, pos: c.cells}
		for k, p := 0, c.present&(1<<bits.Len64(rows)-1); p != 0; k, p = k+1, p&(p-1) {
			code, cell := c.body[k], ""
			if code == 0 {
				var err error
				if cell, err = d.String(); err != nil {
					return arena, corrupt("cell %d: %w", k, err)
				}
			}
			if r := bits.TrailingZeros64(p); rows&(1<<r) != 0 {
				v.codes[r], v.vec[r] = code, cell
			}
		}
		if walk == c.cells && d.Rest() != 0 {
			return arena, corrupt("%d trailing template-chunk bytes", d.Rest())
		}
		for p := rows &^ c.present; p != 0; p &= p - 1 {
			r := bits.TrailingZeros64(p)
			v.codes[r], v.vec[r] = 0, ""
		}
		v.tmpls = c.tmpls
		return arena, nil
	case encPlain:
		d := StringDec{s: c.body}
		var at [indexEvery + 1]int // at[k]: where cell k starts, past the lengths
		for k := 0; k < c.cells; k++ {
			l := uint64(0)
			if p := d.pos; p < len(d.s) && d.s[p] < 0x80 {
				l, d.pos = uint64(d.s[p]), p+1 // a length in one byte
			} else {
				var err error
				if l, err = d.Uvarint(); err != nil {
					return arena, corrupt("value length: %w", err)
				}
			}
			if l > uint64(len(c.body)) {
				return arena, corrupt("value of %d bytes in a %d-byte chunk", l, len(c.body))
			}
			at[k+1] = at[k] + int(l)
		}
		if at[c.cells] != d.Rest() {
			return arena, corrupt("%d value bytes where the lengths say %d", d.Rest(), at[c.cells])
		}
		vals := c.body[d.pos:]
		for k, p := 0, c.present; p != 0; k, p = k+1, p&(p-1) {
			if r := bits.TrailingZeros64(p); rows&(1<<r) != 0 {
				v.vec[r] = vals[at[k]:at[k+1]]
			}
		}
		for p := rows &^ c.present; p != 0; p &= p - 1 {
			v.vec[bits.TrailingZeros64(p)] = ""
		}
		return arena, nil
	}
	packed, width, err := c.codedCells(v)
	if err != nil {
		return arena, err
	}
	coded, absent := len(v.dict), -1 // coded: the entries a present cell may code for
	switch {
	case c.cells == n:
	case c.enc == encSection:
		if absent = c.sdict.empty; absent < 0 {
			return arena, corrupt("rows without the cell and no \"\" in a section dictionary")
		}
	default:
		absent = coded
		v.dict = append(v.dict, "")
	}
	if top := topCode(packed, width, c.cells); top >= coded {
		return arena, corrupt("code %d past a dictionary of %d", top, coded)
	}
	for ; rows != 0; rows &= rows - 1 {
		r, code := bits.TrailingZeros64(rows), absent
		if c.present&(1<<r) != 0 {
			code = codeAt(packed, width, bits.OnesCount64(c.present&(1<<r-1)))
		}
		v.codes[r], v.vec[r] = uint8(code), v.dict[code]
	}
	return arena, nil
}

// sectionRows returns the rows whose cell of c, a column in section
// codes, codes for k; v is scratch.
func (c *colChunk) sectionRows(k uint8, v *colVec) (uint64, error) {
	packed, width, err := c.codedCells(v)
	if err != nil {
		return 0, err
	}
	var rows uint64
	for j, p := 0, c.present; p != 0; j, p = j+1, p&(p-1) {
		switch code := codeAt(packed, width, j); {
		case code == int(k):
			rows |= p & -p
		case code >= len(v.dict):
			return 0, corrupt("code %d past a dictionary of %d", code, len(v.dict))
		}
	}
	return rows, nil
}

// topCode returns the largest of the codes of cells cells packed width
// bits a cell, as codedCells returns them.
func topCode(packed string, width, cells int) int {
	top := byte(0)
	switch width {
	case 0:
		top = packed[0]
	case 4:
		for _, b := range []byte(packed[:cells/2]) {
			top = max(top, b&0x0f, b>>4)
		}
		if cells%2 != 0 {
			top = max(top, packed[cells/2]&0x0f)
		}
	case 8:
		for _, b := range []byte(packed) {
			top = max(top, b)
		}
	}
	return int(top)
}

// codeAt returns the code of cell k of packed codes width bits a cell, as
// codedCells returns them.
func codeAt(packed string, width, k int) int {
	switch width {
	case -1:
		return 0
	case 0:
		return int(packed[0])
	case 4:
		return int(packed[k/2] >> (k % 2 * 4) & 0x0f)
	}
	return int(packed[k])
}

// codedCells reads the head of a column in codes — constant, dictionary
// or section codes: what the codes index into v.dict (a block's own
// values, or its section's dictionary) and the packed codes, width bits a
// cell (0: a section's one code for every cell; -1: a constant's, none).
func (c *colChunk) codedCells(v *colVec) (packed string, width int, err error) {
	if c.enc == encSection {
		if c.body == "" {
			return "", 0, corrupt("empty section-code chunk")
		}
		width, packed = int(c.body[0]), c.body[1:]
		if width != 0 && width != 4 && width != 8 || len(packed) != codeBytes(width, c.cells) {
			return "", 0, corrupt("%d section code bytes for %d cells of width %d", len(packed), c.cells, width)
		}
		v.dict, v.sdict = c.sdict.vals, c.sdict
		return packed, width, nil
	}
	d := StringDec{s: c.body}
	nd, width := uint64(1), -1
	if c.enc != encConst {
		if nd, err = d.Uvarint(); err != nil {
			return "", 0, corrupt("dictionary size: %w", err)
		}
		if nd == 0 || nd > uint64(c.cells) {
			return "", 0, corrupt("dictionary of %d values for %d cells", nd, c.cells)
		}
		width = 8
		if c.enc == encDict4 {
			width = 4
		}
	}
	for k := uint64(0); k < nd; k++ {
		s, err := d.String()
		if err != nil {
			return "", 0, corrupt("dictionary value %d: %w", k, err)
		}
		v.dict = append(v.dict, s)
	}
	if packed = d.s[d.pos:]; len(packed) != codeBytes(width, c.cells) {
		return "", 0, corrupt("%d code bytes for %d cells", len(packed), c.cells)
	}
	return packed, width, nil
}

// codeBytes is how many bytes code cells at width bits each: 0 for a
// constant's (width -1), 1 for a section's of width 0.
func codeBytes(width, cells int) int {
	switch width {
	case 0:
		return 1
	case 4:
		return (cells + 1) / 2
	case 8:
		return cells
	}
	return 0
}

// cellsOf maps rows, a set of a block's rows, onto the cells of a column
// whose rows present carry it: bit k is set where the k-th of them is in
// rows.
func cellsOf(rows, present uint64) uint64 {
	if present&(present+1) == 0 { // rows 0 to k, the usual column
		return rows & present
	}
	var sel uint64
	for k := 0; present != 0; present, k = present&(present-1), k+1 {
		if rows&(present&-present) != 0 {
			sel |= 1 << k
		}
	}
	return sel
}

// checkTemplates fails where a template a row set in rows of v, a column
// in template form of a block whose directory is dir, takes has a hole
// column the block lacks.
func checkTemplates(v *colVec, rows uint64, dir []colChunk) error {
	var checked [4]uint64 // by template code
	for ; rows != 0; rows &= rows - 1 {
		code := v.codes[bits.TrailingZeros64(rows)]
		if code == 0 || checked[code/64]&(1<<(code%64)) != 0 {
			continue
		}
		checked[code/64] |= 1 << (code % 64)
		for _, local := range v.tmpls[code-1].local {
			if k := sort.Search(len(dir), func(k int) bool { return dir[k].local >= local }); k == len(dir) || dir[k].local != local {
				return corrupt("template %d has a hole in column %d, which the block lacks", code, local)
			}
		}
	}
	return nil
}

// templateBytes returns what the rows set in rows of v, a column in
// template form that checkTemplates accepted, take once filled: the hole
// of name-table index l is vecs[at[l]].
func templateBytes(v *colVec, rows uint64, vecs []colVec, at []int32) int {
	need := 0
	for ; rows != 0; rows &= rows - 1 {
		i := bits.TrailingZeros64(rows)
		if code := v.codes[i]; code > 0 {
			t := &v.tmpls[code-1]
			need += t.size
			for _, local := range t.local {
				need += len(vecs[at[local]].vec[i])
			}
		}
	}
	return need
}

// fillTemplates reassembles the templated cells of the rows set in rows of
// v, a column in template form that checkTemplates accepted, in room sized
// for them: the pooled buffer, grown where it is short, or fresh room where
// pooled is nil. The cells alias it; no other row's is built. The hole of
// name-table index l is vecs[at[l]].
func fillTemplates(v *colVec, rows uint64, pooled *[]byte, vecs []colVec, at []int32) {
	need := templateBytes(v, rows, vecs, at)
	var text []byte
	switch {
	case pooled == nil:
		text = make([]byte, 0, need)
	case cap(*pooled) < need:
		*pooled = make([]byte, 0, need)
		fallthrough
	default:
		text = (*pooled)[:0:need]
	}
	for ; rows != 0; rows &= rows - 1 {
		i := bits.TrailingZeros64(rows)
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
}
