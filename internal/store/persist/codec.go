package persist

import (
	"encoding/binary"
	"fmt"
)

// Binary row codec of commitlog record payloads and of the blocks of v4
// segment files (v5 blocks are columnar, see block.go). Column names are
// never repeated per row: every encoding unit (one commitlog put record,
// one segment file) carries a name table — each distinct column name
// written once — and rows reference table-local indexes. Within a unit,
// one row encodes as:
//
//	uvarint len(Key)     | Key bytes
//	varint  WriteTS
//	uvarint ncols        | per column:
//	    uvarint localIdx   (index into the unit's name table)
//	    uvarint len(value) | value bytes
//
// A name table encodes as:
//
//	uvarint nNames | per name: uvarint len(name) | name bytes
//
// Commitlog put records carry the table inline before the rows (the batch
// is known up front); segment files accumulate it while streaming blocks
// and store it in the footer, so a reader seeking into the middle of a
// segment still resolves every column.
//
// Decoding works over an immutable string: the decoder converts the unit's
// bytes to a string once and every key and value is a zero-copy substring,
// so steady-state decode performs no per-row allocations. Local indexes
// resolve through the unit table into process-wide Dict IDs; a row
// referencing an index beyond the unit's table fails with a clear error.
//
// Columns are written in the row's compact order (sorted by the writer's
// dictionary IDs), so the encoding of a row is deterministic within a
// process — the same logical batch always produces the same bytes, which
// keeps replica commitlog records shareable and segment CRCs meaningful.

// maxStringLen bounds decoded string lengths as a corruption sanity check.
const maxStringLen = 64 << 20

// maxCols bounds the per-row and per-unit column counts.
const maxCols = 1 << 20

// colTableEnc assigns unit-local indexes to column names during encoding.
// The zero value is ready to use.
type colTableEnc struct {
	names []string
	ids   []uint32 // the Dict ID of each name
	local []int32  // Dict ID -> local index + 1 (0: not in the table)
}

func (t *colTableEnc) reset() {
	t.names, t.ids = t.names[:0], t.ids[:0]
	clear(t.local)
}

// localIdx returns the unit-local index for the column, assigning the next
// one on first use.
func (t *colTableEnc) localIdx(c Col) int {
	if int(c.ID) < len(t.local) {
		if i := t.local[c.ID]; i > 0 {
			return int(i) - 1
		}
	} else {
		t.local = append(t.local, make([]int32, int(c.ID)+1-len(t.local))...)
	}
	t.names = append(t.names, defaultDict.Name(c.ID))
	t.ids = append(t.ids, c.ID)
	t.local[c.ID] = int32(len(t.names))
	return len(t.names) - 1
}

// appendColTable appends the name-table encoding.
func appendColTable(b []byte, names []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = binary.AppendUvarint(b, uint64(len(n)))
		b = append(b, n...)
	}
	return b
}

// appendRowBody appends one row's encoding, resolving column names through
// the unit table.
func appendRowBody(b []byte, r Row, t *colTableEnc) []byte {
	b = binary.AppendUvarint(b, uint64(len(r.Key)))
	b = append(b, r.Key...)
	b = binary.AppendVarint(b, r.WriteTS)
	b = binary.AppendUvarint(b, uint64(len(r.cols)))
	for _, c := range r.cols {
		b = binary.AppendUvarint(b, uint64(t.localIdx(c)))
		b = binary.AppendUvarint(b, uint64(len(c.Value)))
		b = append(b, c.Value...)
	}
	return b
}

// AppendRowsBlock appends a self-describing encoding of rows: name table
// first, then uvarint row count, then the rows. This is the commitlog put
// record body; segments use the streaming Writer instead.
func AppendRowsBlock(b []byte, rows []Row) []byte {
	var t colTableEnc
	// Prescan for the name table so it precedes the rows.
	for _, r := range rows {
		for _, c := range r.cols {
			t.localIdx(c)
		}
	}
	b = appendColTable(b, t.names)
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = appendRowBody(b, r, &t)
	}
	return b
}

// StringDec decodes codec values off an immutable string; decoded keys and
// values are zero-copy substrings, so they stay valid (and alive) as long
// as any of them is referenced.
type StringDec struct {
	s   string
	pos int
}

// NewStringDec returns a decoder over s.
func NewStringDec(s string) *StringDec { return &StringDec{s: s} }

// Rest returns the number of undecoded bytes.
func (d *StringDec) Rest() int { return len(d.s) - d.pos }

// Uvarint decodes one uvarint.
func (d *StringDec) Uvarint() (uint64, error) {
	var x uint64
	var shift uint
	for i := d.pos; i < len(d.s); i++ {
		b := d.s[i]
		if b < 0x80 {
			if shift >= 64 || (shift == 63 && b > 1) {
				return 0, fmt.Errorf("persist: uvarint overflow at %d", d.pos)
			}
			d.pos = i + 1
			return x | uint64(b)<<shift, nil
		}
		if shift >= 64 {
			return 0, fmt.Errorf("persist: uvarint overflow at %d", d.pos)
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, fmt.Errorf("persist: truncated uvarint at %d", d.pos)
}

// Varint decodes one zig-zag varint.
func (d *StringDec) Varint() (int64, error) {
	ux, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, nil
}

// String decodes one length-prefixed string as a zero-copy substring.
func (d *StringDec) String() (string, error) {
	n, err := d.Uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("persist: string length %d exceeds sanity bound", n)
	}
	if uint64(d.Rest()) < n {
		return "", fmt.Errorf("persist: string overruns buffer at %d", d.pos)
	}
	s := d.s[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return s, nil
}

// ColTable decodes a unit name table, interning each name into dict and
// returning the local-index → dictionary-ID mapping. Interning copies the
// names out of the decode buffer, so holding the returned IDs (or names
// resolved through them) never pins the unit's bytes.
func (d *StringDec) ColTable(dict *Dict) ([]uint32, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("persist: name table: %w", err)
	}
	if n > maxCols {
		return nil, fmt.Errorf("persist: name table size %d exceeds sanity bound", n)
	}
	ids := make([]uint32, n)
	for i := range ids {
		name, err := d.String()
		if err != nil {
			return nil, fmt.Errorf("persist: name table entry %d: %w", i, err)
		}
		// Intern via the canonical instance when already known so the
		// table never references the decode buffer.
		if id, ok := dict.Lookup(name); ok {
			ids[i] = id
		} else {
			ids[i] = dict.Intern(string([]byte(name)))
		}
	}
	return ids, nil
}

// Row decodes one row against the unit's local→global column mapping. The
// row's columns are appended to *arena, which amortizes the per-row slice
// allocation across a block; pass a pointer to a nil slice to let the
// decoder manage it. Arena growth never invalidates previously decoded
// rows (their slices keep the old backing array).
func (d *StringDec) Row(ids []uint32, arena *[]Col) (Row, error) {
	key, err := d.String()
	if err != nil {
		return Row{}, fmt.Errorf("persist: row key: %w", err)
	}
	ts, err := d.Varint()
	if err != nil {
		return Row{}, fmt.Errorf("persist: row write-ts: %w", err)
	}
	ncols, err := d.Uvarint()
	if err != nil {
		return Row{}, fmt.Errorf("persist: row column count: %w", err)
	}
	if ncols > maxCols {
		return Row{}, fmt.Errorf("persist: column count %d exceeds sanity bound", ncols)
	}
	row := Row{Key: key, WriteTS: ts}
	if ncols == 0 {
		return row, nil
	}
	a := *arena
	start := len(a)
	for i := uint64(0); i < ncols; i++ {
		idx, err := d.Uvarint()
		if err != nil {
			return Row{}, fmt.Errorf("persist: row column %d: %w", i, err)
		}
		if idx >= uint64(len(ids)) {
			return Row{}, fmt.Errorf("persist: row %q references unknown column id %d (table has %d)", key, idx, len(ids))
		}
		v, err := d.String()
		if err != nil {
			return Row{}, fmt.Errorf("persist: row column %d value: %w", i, err)
		}
		a = append(a, Col{ID: ids[idx], Value: v})
	}
	*arena = a
	row.cols = a[start:len(a):len(a)]
	// Writers emit columns in their dictionary order, which need not match
	// this process's; restore the sorted-by-ID invariant (near-sorted in
	// practice, so the insertion sort is ~free).
	sortCols(row.cols)
	return row, nil
}

// DecodeRowsBlock decodes an AppendRowsBlock unit (name table + count +
// rows) from d, interning names into dict.
func DecodeRowsBlock(d *StringDec, dict *Dict) ([]Row, error) {
	ids, err := d.ColTable(dict)
	if err != nil {
		return nil, err
	}
	n, err := d.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("persist: row count: %w", err)
	}
	if n > uint64(d.Rest()) {
		return nil, fmt.Errorf("persist: row count %d overruns buffer", n)
	}
	rows := make([]Row, 0, n)
	var arena []Col
	for i := uint64(0); i < n; i++ {
		r, err := d.Row(ids, &arena)
		if err != nil {
			return nil, fmt.Errorf("persist: row %d: %w", i, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}
