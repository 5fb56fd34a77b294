package api

import (
	"bytes"
	"encoding/json"
	"fmt"

	"hpclog/internal/store"
)

// Cluster-internal wire types: the /v1/replicate replication RPC, the
// /v1/shard/* scatter-gather RPCs (scan, the one row read of a peer's
// replica, plus its key bounds and partition keys), and the /v1/cluster
// membership and status surface. These routes are spoken between hpclogd processes over
// the same versioned envelope as the public API; the decoders below are
// deliberately strict — a replication payload from a misconfigured or
// hostile peer must produce a typed *Error, never a panic and never a
// silently-truncated write (see FuzzReplicateDecode).

// CodeWrongShard rejects a replication or shard RPC addressed to a ring
// member this process does not host (or one that does not own the
// partition written) — the per-shard ownership fence.
const CodeWrongShard ErrorCode = "wrong_shard"

// Decode limits. Payload fields beyond these bounds are hostile or
// misconfigured, not big: a legitimate replica batch is chunked by the
// sender well below them.
const (
	maxMemberIDLen  = 128
	maxTableLen     = 256
	maxPKeyLen      = 1 << 10
	maxReplicateRow = 1 << 20 // rows per replicate call
	maxRowKeyLen    = 64 << 10
)

// WireRow is one storage row on the wire: clustering key, logical write
// timestamp, and columns by name. Compact on purpose — replication
// fans every acked batch out RF-1 times.
type WireRow struct {
	Key     string            `json:"k"`
	WriteTS int64             `json:"ts"`
	Cols    map[string]string `json:"c,omitempty"`
}

// RowToWire converts a storage row for transport.
func RowToWire(r store.Row) WireRow {
	return WireRow{Key: r.Key, WriteTS: r.WriteTS, Cols: r.ColumnsMap()}
}

// RowsToWire converts a batch for transport.
func RowsToWire(rows []store.Row) []WireRow {
	out := make([]WireRow, len(rows))
	for i, r := range rows {
		out[i] = RowToWire(r)
	}
	return out
}

// Row converts back to a storage row.
func (w WireRow) Row() store.Row {
	return store.MapRow(w.Key, w.WriteTS, w.Cols)
}

// WireToRows converts a received batch back to storage rows.
func WireToRows(rows []WireRow) []store.Row {
	out := make([]store.Row, len(rows))
	for i, w := range rows {
		out[i] = w.Row()
	}
	return out
}

// ReplicateRequest is the body of POST /v1/replicate: a coordinator hands
// a replica one pre-stamped batch for one partition of one ring member.
type ReplicateRequest struct {
	// Node is the target ring member id; the receiving process must host
	// it (ownership fencing).
	Node  string    `json:"node"`
	Table string    `json:"table"`
	PKey  string    `json:"pkey"`
	Rows  []WireRow `json:"rows"`
}

// ReplicateResult acknowledges an applied batch.
type ReplicateResult struct {
	Applied int `json:"applied"`
	// WriteTS is the replica's logical clock after applying — the
	// coordinator folds it into its own (Lamport).
	WriteTS int64 `json:"write_ts"`
}

// ShardScanRequest is the body of POST /v1/shard/scan, the one shard row
// read: one partition's rows from one locally-hosted member as an NDJSON
// stream (one WireRow per line, StreamTrailer last). From/To bound the
// clustering range ("" = open).
type ShardScanRequest struct {
	Node  string `json:"node"`
	Table string `json:"table"`
	PKey  string `json:"pkey"`
	From  string `json:"from,omitempty"`
	To    string `json:"to,omitempty"`
}

// ShardBoundsRequest is the body of POST /v1/shard/bounds.
type ShardBoundsRequest struct {
	Node  string `json:"node"`
	Table string `json:"table"`
	PKey  string `json:"pkey"`
}

// ShardBoundsResult reports a partition's clustering-key bounds on one
// member (OK=false: empty or unknown partition).
type ShardBoundsResult struct {
	Min string `json:"min"`
	Max string `json:"max"`
	OK  bool   `json:"ok"`
}

// ShardPartitionsResult lists the partition keys one member holds for a
// table (GET /v1/shard/partitions?node=&table=).
type ShardPartitionsResult struct {
	Keys []string `json:"keys"`
}

// HeartbeatRequest is the body of POST /v1/cluster/heartbeat: the liveness
// probe peers exchange. WriteTS carries the sender's logical clock so
// every process converges on a cluster-wide high-water mark and watch
// subscribers on non-replica nodes still wake (the clock only advances
// with real data, so folding it in cannot feed back).
type HeartbeatRequest struct {
	From    string `json:"from"`
	URL     string `json:"url,omitempty"`
	WriteTS int64  `json:"write_ts"`
}

// HeartbeatResponse echoes the receiver's identity and clock.
type HeartbeatResponse struct {
	Node    string `json:"node"`
	WriteTS int64  `json:"write_ts"`
}

// MemberStatus is one ring member as seen by the answering process.
type MemberStatus struct {
	ID    string `json:"id"`
	URL   string `json:"url,omitempty"`
	Local bool   `json:"local"`
	Up    bool   `json:"up"`
	// Share is the fraction of the token space the member owns as primary.
	Share float64 `json:"share"`
	// PendingHints is the replication lag this process holds toward the
	// member: hinted rows queued awaiting handoff.
	PendingHints int `json:"pending_hints"`
	// LastSeenUnixMS is when the answering process last heard from the
	// member (0 for itself and for never-seen peers).
	LastSeenUnixMS int64 `json:"last_seen_unix_ms,omitempty"`
}

// ClusterStatus is the result of GET /v1/cluster.
type ClusterStatus struct {
	Self    string         `json:"self"`
	RF      int            `json:"rf"`
	WriteTS int64          `json:"write_ts"`
	Members []MemberStatus `json:"members"`
}

// strictDecode unmarshals exactly one JSON value, rejecting unknown
// fields and trailing garbage.
func strictDecode(data []byte, dst any) *Error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return Errorf(CodeBadRequest, "malformed body: %v", err)
	}
	if dec.More() {
		return Errorf(CodeBadRequest, "trailing data after body")
	}
	return nil
}

func checkMemberID(field, id string) *Error {
	if id == "" {
		return Errorf(CodeBadRequest, "missing %s", field)
	}
	if len(id) > maxMemberIDLen {
		return Errorf(CodeBadRequest, "%s longer than %d bytes", field, maxMemberIDLen)
	}
	return nil
}

func checkShardAddr(node, table, pkey string) *Error {
	if e := checkMemberID("node", node); e != nil {
		return e
	}
	if table == "" {
		return Errorf(CodeBadRequest, "missing table")
	}
	if len(table) > maxTableLen {
		return Errorf(CodeBadRequest, "table name longer than %d bytes", maxTableLen)
	}
	if pkey == "" {
		return Errorf(CodeBadRequest, "missing pkey")
	}
	if len(pkey) > maxPKeyLen {
		return Errorf(CodeBadRequest, "pkey longer than %d bytes", maxPKeyLen)
	}
	return nil
}

// DecodeReplicateRequest parses and validates a /v1/replicate body. On
// success every row is well-formed (non-empty bounded key, non-negative
// timestamp) and the batch round-trips losslessly; anything else is a
// typed bad_request.
func DecodeReplicateRequest(data []byte) (*ReplicateRequest, *Error) {
	var req ReplicateRequest
	if e := strictDecode(data, &req); e != nil {
		return nil, e
	}
	if e := checkShardAddr(req.Node, req.Table, req.PKey); e != nil {
		return nil, e
	}
	if len(req.Rows) == 0 {
		return nil, Errorf(CodeBadRequest, "replicate with no rows")
	}
	if len(req.Rows) > maxReplicateRow {
		return nil, Errorf(CodeBadRequest, "replicate batch of %d rows exceeds %d", len(req.Rows), maxReplicateRow)
	}
	for i, r := range req.Rows {
		if r.Key == "" {
			return nil, Errorf(CodeBadRequest, "row %d: empty clustering key", i)
		}
		if len(r.Key) > maxRowKeyLen {
			return nil, Errorf(CodeBadRequest, "row %d: clustering key longer than %d bytes", i, maxRowKeyLen)
		}
		// The storage timestamp codec is fixed-width non-negative decimal;
		// a negative stamp would panic deep in the engine.
		if r.WriteTS < 0 {
			return nil, Errorf(CodeBadRequest, "row %d: negative write_ts %d", i, r.WriteTS)
		}
	}
	return &req, nil
}

// DecodeShardScanRequest parses and validates a /v1/shard/scan body.
func DecodeShardScanRequest(data []byte) (*ShardScanRequest, *Error) {
	var req ShardScanRequest
	if e := strictDecode(data, &req); e != nil {
		return nil, e
	}
	if e := checkShardAddr(req.Node, req.Table, req.PKey); e != nil {
		return nil, e
	}
	if req.To != "" && req.From > req.To {
		return nil, Errorf(CodeBadRequest, "inverted clustering range %q..%q", req.From, req.To)
	}
	return &req, nil
}

// DecodeShardBoundsRequest parses and validates a /v1/shard/bounds body.
func DecodeShardBoundsRequest(data []byte) (*ShardBoundsRequest, *Error) {
	var req ShardBoundsRequest
	if e := strictDecode(data, &req); e != nil {
		return nil, e
	}
	if e := checkShardAddr(req.Node, req.Table, req.PKey); e != nil {
		return nil, e
	}
	return &req, nil
}

// DecodeHeartbeat parses and validates a /v1/cluster/heartbeat body.
func DecodeHeartbeat(data []byte) (*HeartbeatRequest, *Error) {
	var req HeartbeatRequest
	if e := strictDecode(data, &req); e != nil {
		return nil, e
	}
	if e := checkMemberID("from", req.From); e != nil {
		return nil, e
	}
	if len(req.URL) > 2048 {
		return nil, Errorf(CodeBadRequest, "url longer than 2048 bytes")
	}
	if req.WriteTS < 0 {
		return nil, Errorf(CodeBadRequest, "negative write_ts %d", req.WriteTS)
	}
	return &req, nil
}

// String renders a compact one-line member summary (logctl cluster).
func (m MemberStatus) String() string {
	state := "down"
	if m.Up {
		state = "up"
	}
	where := "remote"
	if m.Local {
		where = "local"
	}
	return fmt.Sprintf("%s %s %s share=%.3f hints=%d", m.ID, where, state, m.Share, m.PendingHints)
}
