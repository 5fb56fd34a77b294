package store

import (
	"encoding/binary"
	"fmt"
	"slices"

	"hpclog/internal/store/persist"
)

// Commitlog record payloads. One record type covers every durable
// mutation: a put-batch (one partition's worth of stamped rows); a table
// is made durable by the segment store's manifest before its first put.
// Rows are in the persist binary row codec: each put record carries a name
// table (every distinct column name of the batch written once) and rows
// reference table-local indexes — column names are never repeated per row.
//
// The process's one commitlog holds the records of every local node: each
// is a node tag (kind byte 4, the node's id) followed by the put record,
// which the coordinator encodes once for all of a write's replicas. The
// per-node commitlogs of the predecessor layout hold untagged put records.
//
// Table-creation records (kind byte 2) found in older logs are skipped at
// replay: the manifest has held every table since they were written.
// Records written by the v1 codec (kind byte 1, per-row name strings) are
// rejected at replay with a clear error; checkpoint (Flush) a node with a
// pre-v2 build before upgrading, or discard the commitlog.
const (
	recPutV1       = byte(1)
	recCreateTable = byte(2)
	recPut         = byte(3)
	recNodeTag     = byte(4)
)

// nodeTag returns the tag that names node id ahead of its put records.
func nodeTag(id string) []byte {
	return appendString([]byte{recNodeTag}, id)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodePutRecord encodes a put-batch commitlog record. The buffer is grown
// once, to an estimate of the record's size (exactness does not matter:
// append covers a short guess).
func encodePutRecord(buf []byte, table, pkey string, rows []Row) []byte {
	size := 256 + len(table) + len(pkey) // kind, lengths, name table
	for _, r := range rows {
		size += 16 + len(r.Key) // key length, WriteTS, column count
		for _, c := range r.Cols() {
			size += 4 + len(c.Value)
		}
	}
	buf = append(slices.Grow(buf, size), recPut)
	buf = appendString(buf, table)
	buf = appendString(buf, pkey)
	return persist.AppendRowsBlock(buf, rows)
}

// walRecord is a decoded commitlog record.
type walRecord struct {
	kind  byte
	node  string // the node a tagged record names; "" untagged
	table string // recPut
	pkey  string // recPut
	rows  []Row  // recPut
}

// decodeWALRecord decodes a commitlog record payload, its node tag
// included. The payload bytes are copied into one immutable string up
// front (wal.Replay reuses its read buffer); every decoded key and value
// is a zero-copy substring of that string, so a replayed batch costs one
// allocation for the payload plus the row slices, not one per cell.
func decodeWALRecord(payload []byte) (walRecord, error) {
	var node string
	if len(payload) > 0 && payload[0] == recNodeTag {
		n, k := binary.Uvarint(payload[1:])
		if k <= 0 || n > uint64(len(payload)-1-k) {
			return walRecord{}, fmt.Errorf("store: wal record node tag: truncated")
		}
		node, payload = string(payload[1+k:1+k+int(n)]), payload[1+k+int(n):]
	}
	if len(payload) == 0 {
		return walRecord{}, fmt.Errorf("store: empty wal record")
	}
	s := string(payload[1:])
	d := persist.NewStringDec(s)
	switch payload[0] {
	case recCreateTable:
		return walRecord{kind: recCreateTable}, nil
	case recPut:
		table, err := d.String()
		if err != nil {
			return walRecord{}, fmt.Errorf("store: wal put record table: %w", err)
		}
		pkey, err := d.String()
		if err != nil {
			return walRecord{}, fmt.Errorf("store: wal put record pkey: %w", err)
		}
		rows, err := persist.DecodeRowsBlock(d, persist.DefaultDict())
		if err != nil {
			return walRecord{}, fmt.Errorf("store: wal put record: %w", err)
		}
		return walRecord{kind: recPut, node: node, table: table, pkey: pkey, rows: rows}, nil
	case recPutV1:
		return walRecord{}, fmt.Errorf("%w: commitlog put record was written by codec v1 (per-row column names); checkpoint the node with a pre-v2 build or discard the commitlog", persist.ErrVersion)
	default:
		return walRecord{}, fmt.Errorf("store: unknown wal record type %d", payload[0])
	}
}
