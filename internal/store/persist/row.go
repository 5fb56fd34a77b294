// Package persist implements the on-disk half of the storage engine: the
// canonical row model shared with package store, a compact binary row
// codec, immutable sorted segment files (the SSTable equivalent) with a
// sparse clustering-key index and a time-range footer, and a per-node
// segment store with last-write-wins compaction.
//
// Package store builds on top of it: memtable flushes call Store.Flush,
// partition reads merge segment iterators with the memtable, and the
// commitlog (internal/wal) reuses the row codec for its record payloads.
// The types Row and Range are declared here (and aliased in store) so that
// both packages share one definition without an import cycle.
package persist

import "fmt"

// Col is one cell of a row in the compact representation: the column name
// as a process-wide Dict ID plus the value. Rows store a []Col sorted by
// ID, so a column read is a binary search over integers and a row carries
// no map.
type Col struct {
	// ID is the column name's ID in the process-wide dictionary.
	ID uint32
	// Value is the cell value.
	Value string
}

// C builds a Col, interning the name in the process-wide dictionary.
// Writers on hot paths intern their column names once and construct Col
// values directly.
func C(name, value string) Col { return Col{ID: defaultDict.Intern(name), Value: value} }

// Row is one clustered row within a partition. Columns are free-form
// name/value pairs, allowing every event type and application run to carry
// its own set of columns ("each application run may include columns unique
// to it", Section II-B of the paper).
//
// A row holds its columns in exactly one of two representations: the
// public Columns map (how writers outside the hot path construct rows) or
// the compact cols slice (how the storage engine moves rows internally —
// decode paths and the memtable). Col, ColID, EachCol and ColumnsMap work
// on either; the accessor methods are the supported way to read a row.
// Rows produced by the engine's streaming reads are compact: their Columns
// field is nil and their cells are reached through the accessors. API
// boundaries that hand rows to external consumers (DB.Get, CQL results)
// materialize the map via Materialize.
type Row struct {
	// Key is the clustering key. Rows in a partition are sorted by Key
	// bytewise, so callers encode timestamps with EncodeTS to obtain
	// chronological order.
	Key string
	// Columns holds the cell values of the row in map form. It is nil on
	// compact rows; use the accessor methods unless the row is known to be
	// materialized.
	Columns map[string]string
	// WriteTS is the logical write timestamp used for last-write-wins
	// reconciliation between replicas and across segments.
	WriteTS int64

	// cols is the compact representation: cells sorted by dictionary ID.
	// Invariant: at most one of cols and Columns is non-nil.
	cols []Col
}

// MakeRow builds a compact row from cols, sorting them by dictionary ID in
// place. Duplicate IDs are collapsed keeping the last occurrence.
func MakeRow(key string, writeTS int64, cols []Col) Row {
	sortCols(cols)
	out := cols[:0]
	for i, c := range cols {
		if i > 0 && len(out) > 0 && out[len(out)-1].ID == c.ID {
			out[len(out)-1] = c
			continue
		}
		out = append(out, c)
	}
	return Row{Key: key, WriteTS: writeTS, cols: out}
}

// sortCols sorts by ID with an insertion sort: column counts are small and
// inputs are typically already sorted (decode emits writer order, builders
// intern in declaration order), and unlike sort.Slice it never allocates.
func sortCols(cols []Col) {
	for i := 1; i < len(cols); i++ {
		c := cols[i]
		j := i - 1
		for j >= 0 && cols[j].ID > c.ID {
			cols[j+1] = cols[j]
			j--
		}
		cols[j+1] = c
	}
}

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	c := Row{Key: r.Key, WriteTS: r.WriteTS}
	if r.cols != nil {
		c.cols = make([]Col, len(r.cols))
		copy(c.cols, r.cols)
		return c
	}
	if r.Columns != nil {
		c.Columns = make(map[string]string, len(r.Columns))
		for k, v := range r.Columns {
			c.Columns[k] = v
		}
	}
	return c
}

// Col returns the named column value, or "" if absent.
func (r Row) Col(name string) string {
	if r.cols != nil {
		id, ok := defaultDict.Lookup(name)
		if !ok {
			return ""
		}
		return r.ColID(id)
	}
	return r.Columns[name]
}

// ColID returns the column value for a process-wide dictionary ID, or ""
// if absent. This is the zero-allocation fast path for readers that intern
// their column names once.
func (r Row) ColID(id uint32) string {
	cols := r.cols
	if cols == nil {
		if r.Columns == nil {
			return ""
		}
		return r.Columns[defaultDict.Name(id)]
	}
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cols[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && cols[lo].ID == id {
		return cols[lo].Value
	}
	return ""
}

// Cols returns the compact column slice of the row (sorted by ID), or nil
// when the row holds a map instead. The slice is shared with the row and
// must be treated as read-only. Callers iterating all columns must handle
// the nil case by ranging Columns; resolve names with ColumnName.
func (r Row) Cols() []Col { return r.cols }

// ColumnsMap returns the row's cells as a name→value map, building one
// when the row is compact. Mutating the result of a materialized row
// mutates the row.
func (r Row) ColumnsMap() map[string]string {
	if r.cols == nil {
		return r.Columns
	}
	m := make(map[string]string, len(r.cols))
	for _, c := range r.cols {
		m[defaultDict.Name(c.ID)] = c.Value
	}
	return m
}

// Materialize returns the row with its cells in the public Columns map —
// the API-boundary form handed to external consumers (JSON, gob, direct
// map access). Compact rows allocate the map; materialized rows pass
// through unchanged.
func (r Row) Materialize() Row {
	if r.cols == nil {
		return r
	}
	return Row{Key: r.Key, WriteTS: r.WriteTS, Columns: r.ColumnsMap()}
}

// Compact returns the row in compact representation, interning its column
// names into the process-wide dictionary. Map rows are converted (one
// []Col allocation); compact rows pass through unchanged. The storage
// engine compacts rows once at the write boundary so the memtable, the
// commitlog codec, and segment flushes all work ID-based.
func (r Row) Compact() Row {
	if r.Columns == nil {
		return r
	}
	cols := make([]Col, 0, len(r.Columns))
	for k, v := range r.Columns {
		cols = append(cols, Col{ID: defaultDict.Intern(k), Value: v})
	}
	sortCols(cols)
	return Row{Key: r.Key, WriteTS: r.WriteTS, cols: cols}
}

// Range selects clustering keys in [From, To). Zero-value fields mean
// unbounded on that side; the zero Range selects the whole partition.
type Range struct {
	From string // inclusive lower bound; "" = unbounded
	To   string // exclusive upper bound; "" = unbounded
}

// Contains reports whether key falls within the range.
func (rg Range) Contains(key string) bool {
	if rg.From != "" && key < rg.From {
		return false
	}
	if rg.To != "" && key >= rg.To {
		return false
	}
	return true
}

// encodedTSLen is the fixed width of an EncodeTS key prefix: 19 decimal
// digits hold any non-negative int64.
const encodedTSLen = 19

// EncodeTS encodes a unix timestamp (seconds or any non-negative int64) as
// a fixed-width decimal string whose bytewise order matches numeric order.
// It runs on every write and every scan-task range construction, so it
// writes digits directly instead of going through fmt.
func EncodeTS(ts int64) string {
	var b [encodedTSLen]byte
	return string(AppendTS(b[:0], ts))
}

// AppendTS appends EncodeTS(ts) to b, for callers that build a longer key
// in one buffer.
func AppendTS(b []byte, ts int64) []byte {
	if ts < 0 {
		panic(fmt.Sprintf("store: EncodeTS(%d) negative", ts))
	}
	n := len(b)
	b = append(b, "0000000000000000000"[:encodedTSLen]...)
	for i := n + encodedTSLen - 1; ts > 0; i-- {
		b[i] = byte('0' + ts%10)
		ts /= 10
	}
	return b
}

// DecodeTS reverses EncodeTS on the leading 19 bytes of a clustering key.
func DecodeTS(key string) (int64, error) {
	if len(key) < encodedTSLen {
		return 0, fmt.Errorf("store: clustering key %q too short for timestamp", key)
	}
	var ts int64
	for i := 0; i < encodedTSLen; i++ {
		c := key[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("store: clustering key %q has non-digit timestamp", key)
		}
		ts = ts*10 + int64(c-'0')
	}
	return ts, nil
}
