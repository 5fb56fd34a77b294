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

import (
	"fmt"
	"slices"
)

// Col is one cell of a row: the column name as a process-wide Dict ID plus
// the value. Rows store a []Col sorted by ID, so a column read is a binary
// search over integers and a row carries no map.
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
// A row holds its cells in one form: a slice of interned (ID, value) pairs
// sorted by ID. MakeRow and MapRow build rows; Col, ColID and Cols read
// them, and ColumnsMap is the name→value view for API edges.
type Row struct {
	// Key is the clustering key. Rows in a partition are sorted by Key
	// bytewise, so callers encode timestamps with EncodeTS to obtain
	// chronological order.
	Key string
	// WriteTS is the logical write timestamp used for last-write-wins
	// reconciliation between replicas and across segments (see Newer).
	WriteTS int64

	// cols holds the cells sorted by dictionary ID.
	cols []Col
}

// MakeRow builds a row from cols, sorting them by dictionary ID in place.
// Duplicate IDs are collapsed keeping the last occurrence.
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

// MapRow builds a row from a name→value map, interning the names in the
// process-wide dictionary. It is for maps that arrive from outside the
// engine (CQL INSERT, wire rows, ingest metadata); a nil or empty map
// gives a row with no cells.
func MapRow(key string, writeTS int64, m map[string]string) Row {
	var cols []Col
	if len(m) > 0 {
		cols = make([]Col, 0, len(m))
		for k, v := range m {
			cols = append(cols, Col{ID: defaultDict.Intern(k), Value: v})
		}
		sortCols(cols)
	}
	return Row{Key: key, WriteTS: writeTS, cols: cols}
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
	return Row{Key: r.Key, WriteTS: r.WriteTS, cols: slices.Clone(r.cols)}
}

// Col returns the named column value, or "" if absent.
func (r Row) Col(name string) string {
	id, ok := defaultDict.Lookup(name)
	if !ok {
		return ""
	}
	return r.ColID(id)
}

// ColID returns the column value for a process-wide dictionary ID, or ""
// if absent. This is the zero-allocation fast path for readers that intern
// their column names once.
func (r Row) ColID(id uint32) string {
	cols := r.cols
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

// Cols returns the row's cells sorted by ID. The slice is shared with the
// row and must be treated as read-only; resolve names with ColumnName.
func (r Row) Cols() []Col { return r.cols }

// ColumnsMap returns a new name→value map of the row's cells, or nil when
// the row has none.
func (r Row) ColumnsMap() map[string]string {
	if len(r.cols) == 0 {
		return nil
	}
	m := make(map[string]string, len(r.cols))
	for _, c := range r.cols {
		m[defaultDict.Name(c.ID)] = c.Value
	}
	return m
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
