package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"hpclog/internal/api"
	"hpclog/internal/query"
)

// maxLineBytes bounds one NDJSON line (a single event/row document).
const maxLineBytes = 4 << 20

// StreamEvents executes an events query in NDJSON streaming mode,
// calling fn once per event in result order as lines arrive off the
// socket — the result is never materialized on either side. The streamed
// sequence concatenates to exactly the one-shot Events result.
func (c *Client) StreamEvents(ctx context.Context, qc query.Context, fn func(query.EventRecord) error) error {
	return stream(ctx, c, "/v1/query/stream",
		api.QueryRequest{Request: query.Request{Op: query.OpEvents, Context: qc}}, fn)
}

// StreamRuns executes a runs query in NDJSON streaming mode.
func (c *Client) StreamRuns(ctx context.Context, qc query.Context, fn func(query.RunRecord) error) error {
	return stream(ctx, c, "/v1/query/stream",
		api.QueryRequest{Request: query.Request{Op: query.OpRuns, Context: qc}}, fn)
}

// trailerPrefix identifies the terminal line of every NDJSON stream:
// api.StreamTrailer marshals its discriminator field first.
var trailerPrefix = []byte(`{"trailer":`)

// stream POSTs body and decodes the NDJSON response line by line into T.
// Streams are not retried — a mid-stream failure surfaces to the caller,
// who can re-issue (or resume via pagination).
func stream[T any](ctx context.Context, c *Client, path string, body any, fn func(T) error) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("client: marshal request: %w", err)
	}
	req, err := c.newRequest(ctx, http.MethodPost, path, payload)
	if err != nil {
		return err
	}
	started := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		err = fmt.Errorf("client: POST %s: %w", path, err)
		c.observed(http.MethodPost, path, 0, started, err)
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != api.MediaTypeNDJSON {
		// The server answered with an enveloped error before streaming.
		if aerr := errorEnvelope(resp); aerr != nil {
			c.observed(http.MethodPost, path, 0, started, aerr)
			return aerr
		}
		err = fmt.Errorf("client: POST %s: HTTP %d with content type %q", path, resp.StatusCode, ct)
		c.observed(http.MethodPost, path, 0, started, err)
		return err
	}
	c.observed(http.MethodPost, path, 0, started, nil)
	return decodeNDJSON(resp.Body, fn)
}

// decodeNDJSON consumes data lines until the trailer. An EOF before the
// trailer means the stream was truncated mid-flight and is an error.
func decodeNDJSON[T any](r io.Reader, fn func(T) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	// One decoder and one heap slot serve every line: the decoder's
	// string cache spans the stream, and &v converts to any without a
	// fresh allocation per row.
	var dec api.Decoder
	var v, zero T
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if bytes.HasPrefix(line, trailerPrefix) {
			var tr api.StreamTrailer
			if err := json.Unmarshal(line, &tr); err != nil {
				return fmt.Errorf("client: bad stream trailer: %w", err)
			}
			if tr.Err != nil {
				return tr.Err
			}
			return nil
		}
		v = zero
		if err := dec.Unmarshal(line, &v); err != nil {
			return fmt.Errorf("client: bad stream line: %w", err)
		}
		if err := fn(v); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("client: stream read: %w", err)
	}
	return fmt.Errorf("client: stream truncated (no trailer)")
}
