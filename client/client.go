// Package client is the typed Go SDK for the analytic server's /v1 wire
// protocol — the one HTTP client in the repo: logctl, the cluster
// runtime's peer calls, the integration test and the engine-test wire
// harness all speak to the server through it.
//
// It wraps the contract defined in internal/api: enveloped JSON with
// machine-readable error codes (surfaced as *api.Error), request IDs,
// protocol version negotiation, automatic retries with backoff for
// transient failures, context cancellation on every call, cursor
// pagination, NDJSON streaming, push-based watches, and CQL sessions.
//
//	cli := client.New("http://localhost:8080")
//	events, err := cli.Events(ctx, query.Context{EventType: "MCE", From: f, To: t})
//
// Decoded results share memory with their response: every plain string
// value (no escapes, all ASCII) is a substring of one immutable copy of
// the response body — of the line, for a stream — so a decoded row costs
// little more than its attribute map, but a retained record pins its
// whole response. strings.Clone what you keep from a large result.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hpclog/internal/api"
	"hpclog/internal/obs"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// Client talks to one hpclogd base URL.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, proxies, test
// round-trippers). The default client has no global timeout — watch
// streams are long-lived — so deadlines come from the call context.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a failed call is retried (default 2;
// 0 disables). Only transport errors and retryable server codes
// (overloaded, unavailable, internal) are retried; every request the SDK
// issues is a read or an idempotent maintenance call, so retrying is
// safe.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base retry backoff (default 100ms, doubling per
// attempt).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// New creates a client for the server at base (e.g.
// "http://localhost:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{},
		retries: 2,
		backoff: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// retryable reports whether an enveloped failure is worth retrying.
func retryable(e *api.Error) bool {
	switch e.Code {
	case api.CodeOverloaded, api.CodeUnavailable, api.CodeInternal:
		return true
	default:
		return false
	}
}

// newRequest builds one protocol-stamped request.
func (c *Client) newRequest(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(api.VersionHeader, fmt.Sprint(api.Version))
	if id, ok := api.RequestIDFromContext(ctx); ok {
		// Propagate the caller's request ID so one distributed query's
		// sub-requests trace under a single ID on every node they touch.
		req.Header.Set(api.RequestIDHeader, id)
	}
	if body != nil {
		req.Header.Set("Content-Type", api.MediaTypeJSON)
	}
	return req, nil
}

// call performs one enveloped exchange with retries; the result is
// decoded into out when non-nil.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
	}
	return c.retry(ctx, c.retries, func() (bool, error) { return c.once(ctx, method, path, body, out) })
}

// retry runs attempt until it succeeds, fails for good, or has been
// retried n times, backing off exponentially in between.
func (c *Client) retry(ctx context.Context, n int, attempt func() (retry bool, err error)) error {
	var lastErr error
	for i := 0; i <= n; i++ {
		if i > 0 {
			if err := sleepCtx(ctx, c.backoff<<(i-1)); err != nil {
				return errors.Join(err, lastErr)
			}
		}
		retry, err := attempt()
		if err == nil || !retry {
			return err
		}
		lastErr = err
		if ctx.Err() != nil {
			return errors.Join(ctx.Err(), lastErr)
		}
	}
	return lastErr
}

// once performs a single enveloped exchange: the body is read to EOF into
// a pooled buffer — which also hands the connection back to the
// transport for reuse — and the envelope and its result are decoded from
// it in one scan. retry reports whether a failure is worth another
// attempt: transport errors, retryable server codes, and an error status
// whose body is not an envelope (a gateway's page, not this server's
// answer). A 2xx that does not decode is final; it may have left out
// partly filled.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) (retry bool, err error) {
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return true, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	buf := api.GetBuffer()
	defer buf.Release()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return true, fmt.Errorf("client: %s %s: read response: %w", method, path, err)
	}
	env, err := api.DecodeResponse(buf.B, out)
	if err != nil {
		return resp.StatusCode >= 300, fmt.Errorf("client: %s %s: HTTP %d with undecodable response: %w",
			method, path, resp.StatusCode, err)
	}
	if env.Protocol != 0 && (env.Protocol < api.MinVersion || env.Protocol > api.Version) {
		return false, fmt.Errorf("client: server speaks protocol %d, this SDK speaks %d..%d",
			env.Protocol, api.MinVersion, api.Version)
	}
	if !env.OK {
		e := env.Err
		if e == nil {
			// A failed envelope always carries an error; synthesize one if
			// a proxy stripped it so the failure cannot read as success.
			e = api.Errorf(api.CodeInternal, "HTTP %d with no error in envelope", resp.StatusCode)
		}
		e.Status = resp.StatusCode
		if e.RequestID == "" {
			e.RequestID = env.RequestID
		}
		return retryable(e), e
	}
	return false, nil
}

// errorEnvelope reads the enveloped error a streaming endpoint answers
// with when it fails before committing to a stream; nil when the body
// holds none. The body is read to EOF so the connection is reusable.
func errorEnvelope(resp *http.Response) *api.Error {
	buf := api.GetBuffer()
	defer buf.Release()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil
	}
	env, err := api.DecodeResponse(buf.B, nil)
	if err != nil || env.Err == nil {
		return nil
	}
	env.Err.Status = resp.StatusCode
	return env.Err
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// --- Query surface ---

// Do executes one query.Request and returns the raw result JSON — the
// generic escape hatch when no typed method fits.
func (c *Client) Do(ctx context.Context, req query.Request) (json.RawMessage, error) {
	var raw json.RawMessage
	if err := c.call(ctx, http.MethodPost, "/v1/query", api.QueryRequest{Request: req}, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Query executes req and decodes the result into T:
//
//	hm, err := client.Query[analytics.HeatMap](ctx, cli, req)
func Query[T any](ctx context.Context, c *Client, req query.Request) (T, error) {
	var out T
	err := c.call(ctx, http.MethodPost, "/v1/query", api.QueryRequest{Request: req}, &out)
	return out, err
}

// Types returns the event type catalog.
func (c *Client) Types(ctx context.Context) (map[string]string, error) {
	var out map[string]string
	err := c.call(ctx, http.MethodGet, "/v1/types", nil, &out)
	return out, err
}

// Events returns all events matching the context in one shot. For large
// windows prefer EventsPage or StreamEvents.
func (c *Client) Events(ctx context.Context, qc query.Context) ([]query.EventRecord, error) {
	return Query[[]query.EventRecord](ctx, c, query.Request{Op: query.OpEvents, Context: qc})
}

// Runs returns application runs matching the context.
func (c *Client) Runs(ctx context.Context, qc query.Context) ([]query.RunRecord, error) {
	return Query[[]query.RunRecord](ctx, c, query.Request{Op: query.OpRuns, Context: qc})
}

// Stats returns the server's counters (queries, cache, compute, storage,
// HTTP surface).
func (c *Client) Stats(ctx context.Context) (api.StatsPayload, error) {
	var out api.StatsPayload
	err := c.call(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// StorageStats returns the durable engine's counters.
func (c *Client) StorageStats(ctx context.Context) (store.StorageStats, error) {
	var out store.StorageStats
	err := c.call(ctx, http.MethodGet, "/v1/storage", nil, &out)
	return out, err
}

// Compact forces a full flush + compaction pass on the server's store.
func (c *Client) Compact(ctx context.Context) (api.CompactResult, error) {
	var out api.CompactResult
	err := c.call(ctx, http.MethodPost, "/v1/storage/compact", nil, &out)
	return out, err
}

// TierSweep forces a tiering sweep: flush, upload every eligible sealed
// segment to the server's object-store tier, and evict the local data
// files. Zero work when the server has no tier configured.
func (c *Client) TierSweep(ctx context.Context) (api.TierResult, error) {
	var out api.TierResult
	err := c.call(ctx, http.MethodPost, "/v1/storage/tier", nil, &out)
	return out, err
}

// ShardSegments lists every node's on-disk segments with their key
// ranges, Merkle roots, and tier placement.
func (c *Client) ShardSegments(ctx context.Context) (api.SegmentsPayload, error) {
	var out api.SegmentsPayload
	err := c.call(ctx, http.MethodGet, "/v1/shard/segments", nil, &out)
	return out, err
}

// Protocol asks the server which protocol versions it speaks.
func (c *Client) Protocol(ctx context.Context) (api.ProtocolInfo, error) {
	var out api.ProtocolInfo
	err := c.call(ctx, http.MethodGet, "/v1/protocol", nil, &out)
	return out, err
}

// Health probes the liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	req, err := c.newRequest(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: healthz returned HTTP %d", resp.StatusCode)
	}
	return nil
}

// SlowQueries fetches the server's retained slow-query traces (newest
// first) from /v1/debug/slow.
func (c *Client) SlowQueries(ctx context.Context) ([]obs.SlowTrace, error) {
	var out []obs.SlowTrace
	err := c.call(ctx, http.MethodGet, "/v1/debug/slow", nil, &out)
	return out, err
}

// MetricsText fetches the raw Prometheus text exposition from
// /v1/metrics (no envelope — the body is what a scraper would see).
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("client: metrics returned HTTP %d", resp.StatusCode)
	}
	return string(body), nil
}

// --- Pagination ---

// EventsPage returns one page of events plus the cursor resuming after
// it ("" when exhausted). Cursors encode data positions, so they remain
// valid across server restarts and compaction.
func (c *Client) EventsPage(ctx context.Context, qc query.Context, limit int, cursor string) ([]query.EventRecord, string, error) {
	var pr api.PageResult[query.EventRecord]
	err := c.call(ctx, http.MethodPost, "/v1/query", api.QueryRequest{
		Request: query.Request{Op: query.OpEvents, Context: qc},
		Page:    &api.Page{Limit: limit, Cursor: cursor},
	}, &pr)
	return pr.Items, pr.NextCursor, err
}

// RunsPage returns one page of runs plus the resume cursor.
func (c *Client) RunsPage(ctx context.Context, qc query.Context, limit int, cursor string) ([]query.RunRecord, string, error) {
	var pr api.PageResult[query.RunRecord]
	err := c.call(ctx, http.MethodPost, "/v1/query", api.QueryRequest{
		Request: query.Request{Op: query.OpRuns, Context: qc},
		Page:    &api.Page{Limit: limit, Cursor: cursor},
	}, &pr)
	return pr.Items, pr.NextCursor, err
}

// EachEvent pages through the full event result, calling fn once per
// event in result order. pageSize <= 0 uses the server default.
func (c *Client) EachEvent(ctx context.Context, qc query.Context, pageSize int, fn func(query.EventRecord) error) error {
	cursor := ""
	for {
		items, next, err := c.EventsPage(ctx, qc, pageSize, cursor)
		if err != nil {
			return err
		}
		for _, e := range items {
			if err := fn(e); err != nil {
				return err
			}
		}
		if next == "" {
			return nil
		}
		cursor = next
	}
}
