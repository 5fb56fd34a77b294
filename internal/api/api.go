// Package api defines the versioned wire protocol between the analytic
// server and its clients: the /v1 request/response envelope with
// machine-readable error codes and request IDs, protocol version
// negotiation, cursor-based pagination of row-returning results, and the
// NDJSON streaming/watch framing. Both internal/server (the producer) and
// the public client package (the consumer) build on these types, so the
// contract lives in exactly one place.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"

	"hpclog/internal/compute"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// Protocol versioning. A client advertises the version it speaks in the
// VersionHeader request header; the server refuses versions outside
// [MinVersion, Version] with CodeUnsupportedProtocol and stamps every
// envelope with the version it answered in, so both sides can detect a
// mismatch without an extra round trip.
const (
	// Version is the protocol version this tree speaks.
	Version = 1
	// MinVersion is the oldest protocol version the server still accepts.
	MinVersion = 1

	// VersionHeader carries the client's protocol version on requests and
	// the server's on responses.
	VersionHeader = "X-Hpclog-Protocol"
	// RequestIDHeader carries the request ID. Clients may supply one (it
	// is echoed back); otherwise the server assigns one.
	RequestIDHeader = "X-Request-Id"

	// MediaTypeJSON is the envelope content type.
	MediaTypeJSON = "application/json"
	// MediaTypeNDJSON is the content type of streamed results: one JSON
	// document per line, in result order.
	MediaTypeNDJSON = "application/x-ndjson"
)

// ErrorCode classifies a request failure so clients can branch without
// parsing message text.
type ErrorCode string

const (
	// CodeBadRequest: the request body, parameters, or query were invalid.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeUnknownOp: the query op is not one the engine supports.
	CodeUnknownOp ErrorCode = "unknown_op"
	// CodeBadCursor: the pagination cursor failed to decode or belongs to
	// a different request shape.
	CodeBadCursor ErrorCode = "bad_cursor"
	// CodeNotStreamable: the op does not produce a row stream (aggregate
	// results are single documents).
	CodeNotStreamable ErrorCode = "not_streamable"
	// CodeUnsupportedProtocol: the client's protocol version is outside
	// the server's supported range.
	CodeUnsupportedProtocol ErrorCode = "unsupported_protocol"
	// CodeOverloaded: the per-route in-flight limit was hit; retry later.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeTooLarge: the request body exceeded the server's size cap.
	CodeTooLarge ErrorCode = "too_large"
	// CodeInternal: the server failed while executing a valid request.
	CodeInternal ErrorCode = "internal"
	// CodeUnavailable: the backend store could not satisfy the request's
	// consistency level.
	CodeUnavailable ErrorCode = "unavailable"
)

// HTTPStatus maps an error code onto the transport status the server
// sends with it.
func (c ErrorCode) HTTPStatus() int {
	switch c {
	case CodeBadRequest, CodeUnknownOp, CodeBadCursor, CodeNotStreamable, CodeUnsupportedProtocol:
		return http.StatusBadRequest
	case CodeOverloaded:
		return http.StatusTooManyRequests
	case CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	case CodeWrongShard:
		// The peer addressed a shard this process does not host: its view
		// of the ring is stale or misconfigured. 421 tells it the request
		// was sent to the wrong server rather than blaming the payload.
		return http.StatusMisdirectedRequest
	default:
		return http.StatusInternalServerError
	}
}

// Error is the machine-readable failure shape carried in envelopes. It
// implements error, so the client SDK surfaces it unchanged and callers
// can errors.As their way to the code.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	// RequestID ties the failure to the server-side request log.
	RequestID string `json:"request_id,omitempty"`
	// Status is the HTTP status the error traveled with. Set by the
	// client when decoding; not serialized (the transport carries it).
	Status int `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("api: %s: %s", e.Code, e.Message)
}

// Errorf builds an Error with a formatted message.
func Errorf(code ErrorCode, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Response is the v1 envelope of every non-streamed answer. The server
// writes it with AppendResponse and the SDK reads it with DecodeResponse,
// which decodes Result in place instead of retaining it.
type Response struct {
	OK bool `json:"ok"`
	// Protocol is the version the server answered in.
	Protocol int `json:"protocol"`
	// RequestID identifies this exchange (client-supplied or assigned).
	RequestID string          `json:"request_id,omitempty"`
	ElapsedMS int64           `json:"elapsed_ms"`
	Err       *Error          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// QueryRequest is the body of POST /v1/query: a query.Request plus
// optional pagination; the embedded request flattens into the same JSON
// object.
type QueryRequest struct {
	query.Request
	// Page requests cursor pagination; only row-returning ops (events,
	// runs) support it.
	Page *Page `json:"page,omitempty"`
}

// CQLRequest is the body of POST /v1/cql.
type CQLRequest struct {
	Query       string `json:"query"`
	Consistency string `json:"consistency,omitempty"`
	// Page requests cursor pagination; only non-aggregate SELECTs support
	// it.
	Page *Page `json:"page,omitempty"`
}

// Page asks for one page of a row-returning result.
type Page struct {
	// Limit caps the page size; <= 0 means the server default.
	Limit int `json:"limit,omitempty"`
	// Cursor resumes after a previous page's NextCursor; empty starts
	// from the beginning.
	Cursor string `json:"cursor,omitempty"`
}

// StreamTrailer is the terminal line of an NDJSON stream: after the data
// lines, the server writes exactly one trailer object (distinguished by
// its leading "trailer" field) carrying either the row count or the error
// that cut the stream short. Clients that see EOF without a trailer know
// the stream was truncated.
type StreamTrailer struct {
	Trailer bool   `json:"trailer"`
	Rows    int64  `json:"rows"`
	Err     *Error `json:"error,omitempty"`
}

// WatchParams documents the query parameters of GET /v1/watch; the server
// parses them from the URL rather than a body so watches stay curl-able.
//
//	type       event type to watch (required)
//	since      unix seconds; deliver events with timestamp >= since
//	timeout_ms maximum stream lifetime (capped by the server)
//
// The response is an NDJSON stream of query.EventRecord lines followed by
// a StreamTrailer when the watch ends (timeout, shutdown, or error).

// ProtocolInfo is the result of GET /v1/protocol: version negotiation
// without side effects.
type ProtocolInfo struct {
	Protocol    int    `json:"protocol"`
	MinProtocol int    `json:"min_protocol"`
	Server      string `json:"server"`
}

// ServerName identifies this implementation in ProtocolInfo.
const ServerName = "hpclog-analyticsd"

// RouteStats reports one route's in-flight concurrency limiter.
type RouteStats struct {
	// InFlight is the number of requests currently executing.
	InFlight int64 `json:"in_flight"`
	// Limit is the per-route concurrency cap (0 = unlimited).
	Limit int64 `json:"limit"`
	// Total counts admitted requests.
	Total int64 `json:"total"`
	// Rejected counts requests refused with CodeOverloaded.
	Rejected int64 `json:"rejected"`
}

// HTTPStats aggregates the server's HTTP-surface counters for /v1/stats.
type HTTPStats struct {
	Routes map[string]RouteStats `json:"routes"`
	// WatchSubscribers is the number of live watch subscriptions.
	WatchSubscribers int64 `json:"watch_subscribers"`
	// WatchDelivered counts events pushed to watch subscribers.
	WatchDelivered int64 `json:"watch_delivered"`
	// WatchWakeups counts write notifications fanned out to subscribers
	// (successful latch sends only; a subscriber already due for a pass is
	// not re-woken, and not re-counted).
	WatchWakeups int64 `json:"watch_wakeups"`
	// WatchCoalesced counts write digests that collapsed into an
	// already-pending dispatch pass instead of producing fresh wakeups.
	WatchCoalesced int64 `json:"watch_coalesced_wakeups"`
	// WatchTailHits counts subscriber wakes served entirely from the
	// in-memory tail ring; WatchTailMisses counts wakes that fell back to
	// a stability-window scan (ring overflow or a digest-free write
	// notification).
	WatchTailHits   int64 `json:"watch_tail_hits"`
	WatchTailMisses int64 `json:"watch_tail_misses"`
	// WatchShards maps event type to its live subscriber count (omitted
	// when no shard has subscribers).
	WatchShards map[string]int64 `json:"watch_shards,omitempty"`
}

// StatsPayload is the result of GET /v1/stats: routing-class totals, per-operation latency and cache
// counters, compute/scan counters, storage-engine counters, and the HTTP
// surface's limiter/watch counters.
type StatsPayload struct {
	Queries query.Stats               `json:"queries"`
	PerOp   map[string]query.OpMetric `json:"per_op"`
	Cache   query.CacheStats          `json:"cache"`
	Compute compute.Stats             `json:"compute"`
	Storage store.StorageStats        `json:"storage"`
	HTTP    HTTPStats                 `json:"http"`
	Tables  []string                  `json:"tables"`
	Nodes   []string                  `json:"store_nodes"`
}

// CompactResult is the result of POST /v1/storage/compact.
type CompactResult struct {
	// PartitionsCompacted counts partitions merged down to one segment.
	PartitionsCompacted int                `json:"partitions_compacted"`
	Storage             store.StorageStats `json:"storage"`
}

// TierResult is the result of POST /v1/storage/tier: a forced sweep that
// flushes memtables, uploads every eligible sealed segment to the object
// tier (verified by read-back), and evicts the local data files.
type TierResult struct {
	Uploaded int                `json:"uploaded"`
	Evicted  int                `json:"evicted"`
	Storage  store.StorageStats `json:"storage"`
}

// SegmentsPayload is the result of GET /v1/shard/segments: every local
// node's segment inventory with key ranges, Merkle roots, and tier
// placement. Replicas compare roots to detect divergence without moving
// data.
type SegmentsPayload struct {
	Nodes []store.SegmentListing `json:"nodes"`
}
