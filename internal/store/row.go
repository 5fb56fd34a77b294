// Package store implements the distributed NoSQL backend of the framework:
// a column-oriented, hash-partitioned, replicated store in the style of
// Apache Cassandra (Section II-A of the paper).
//
// Data is organized as tables. A table holds partitions; each partition is
// addressed by a partition key string (e.g. "412:MCE" for hour 412, event
// type MCE) that is hashed onto the cluster ring. Within a partition, rows
// are kept sorted by a clustering key — a byte-sortable string that the
// data model derives from timestamps — so that one-hour time series can be
// range-scanned efficiently, exactly as in the paper's Fig 1 schemas.
//
// Each store node holds partitions in a memtable that is flushed into
// immutable sorted segments (the SSTable equivalent); reads merge the
// memtable with segments using last-write-wins reconciliation, and a
// compaction pass bounds the segment count. Writes and reads are routed by
// a coordinator through the ring with tunable consistency (ONE / QUORUM /
// ALL).
//
// The store is durable and rooted at Config.Dir: every write goes through
// a per-node commitlog (internal/wal) before it is acknowledged, memtable
// flushes produce immutable on-disk segment files
// (internal/store/persist), a background compactor merges segment files
// and truncates obsolete commitlog segments, and OpenDurable replays the
// commitlog into memtables on startup.
//
// A row holds its cells in one form everywhere, from ingest to the wire:
// interned (column ID, value) pairs sorted by ID (persist.Col). A map
// becomes a row only through MapRow and a row becomes a map only through
// Row.ColumnsMap, both at the API edge; see persist.Row.
package store

import (
	"sort"

	"hpclog/internal/store/persist"
)

// Row is one clustered row within a partition; see persist.Row for the
// field documentation. The type lives in internal/store/persist so the
// on-disk segment layer can share it without an import cycle.
type Row = persist.Row

// Col is one cell of a row; see persist.Col.
type Col = persist.Col

// Range selects clustering keys in [From, To); see persist.Range.
type Range = persist.Range

// MakeRow builds a row from cols; see persist.MakeRow. Writers on hot
// ingest paths intern their column IDs once via InternColumn.
func MakeRow(key string, writeTS int64, cols []Col) Row {
	return persist.MakeRow(key, writeTS, cols)
}

// MapRow builds a row from a name→value map that arrives from outside the
// engine; see persist.MapRow.
func MapRow(key string, writeTS int64, m map[string]string) Row {
	return persist.MapRow(key, writeTS, m)
}

// C builds a Col by name; see persist.C.
func C(name, value string) Col { return persist.C(name, value) }

// InternColumn interns a column name in the process-wide dictionary and
// returns its ID, for use with Row.ColID and MakeRow.
func InternColumn(name string) uint32 { return persist.InternColumn(name) }

// ColumnName resolves a process-wide dictionary ID back to its name.
func ColumnName(id uint32) string { return persist.ColumnName(id) }

// EncodeTS encodes a unix timestamp (seconds or any non-negative int64) as
// a fixed-width decimal string whose bytewise order matches numeric order.
func EncodeTS(ts int64) string { return persist.EncodeTS(ts) }

// AppendTS appends EncodeTS(ts) to b; see persist.AppendTS.
func AppendTS(b []byte, ts int64) []byte { return persist.AppendTS(b, ts) }

// DecodeTS reverses EncodeTS on the leading 19 bytes of a clustering key.
func DecodeTS(key string) (int64, error) { return persist.DecodeTS(key) }

// mergeRows merges sorted row slices into one sorted slice, resolving
// duplicate clustering keys by keeping the row with the largest WriteTS
// (last write wins, later lists breaking ties). Inputs must each be sorted
// by Key. It shares the merge heap with persist.MergeIters and compaction.
func mergeRows(lists ...[]Row) []Row {
	return persist.MergeSorted(lists)
}

// sliceRange returns the sub-slice of sorted rows within rg.
func sliceRange(rows []Row, rg Range) []Row {
	lo := 0
	if rg.From != "" {
		lo = sort.Search(len(rows), func(i int) bool { return rows[i].Key >= rg.From })
	}
	hi := len(rows)
	if rg.To != "" {
		hi = sort.Search(len(rows), func(i int) bool { return rows[i].Key >= rg.To })
	}
	if lo > hi {
		lo = hi
	}
	return rows[lo:hi]
}
