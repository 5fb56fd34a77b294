package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

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
		api.QueryRequest{Request: query.Request{Op: query.OpEvents, Context: qc}}, 0, fn)
}

// StreamRuns executes a runs query in NDJSON streaming mode.
func (c *Client) StreamRuns(ctx context.Context, qc query.Context, fn func(query.RunRecord) error) error {
	return stream(ctx, c, "/v1/query/stream",
		api.QueryRequest{Request: query.Request{Op: query.OpRuns, Context: qc}}, 0, fn)
}

// trailerPrefix identifies the terminal line of every NDJSON stream:
// api.StreamTrailer marshals its discriminator field first.
var trailerPrefix = []byte(`{"trailer":`)

// stream POSTs body and decodes the NDJSON response line by line into T.
// A failure before the server commits to the stream — a transport error
// or a retryable enveloped error — is retried up to retries times with
// the client's backoff. Once lines flow nothing is retried: a mid-stream
// failure surfaces to the caller, who can re-issue (or resume via
// pagination). The public streams pass 0.
func stream[T any](ctx context.Context, c *Client, path string, body any, retries int, fn func(T) error) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("client: marshal request: %w", err)
	}
	var resp *http.Response
	err = c.retry(ctx, retries, func() (retry bool, err error) {
		resp, retry, err = c.openStream(ctx, path, payload)
		return retry, err
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeNDJSON(resp.Body, fn)
}

// openStream POSTs payload and returns the response once the server has
// committed to NDJSON. retry reports whether a failure is worth another
// attempt, as for an enveloped exchange.
func (c *Client) openStream(ctx context.Context, path string, payload []byte) (resp *http.Response, retry bool, err error) {
	req, err := c.newRequest(ctx, http.MethodPost, path, payload)
	if err != nil {
		return nil, false, err
	}
	resp, err = c.hc.Do(req)
	if err != nil {
		return nil, true, fmt.Errorf("client: POST %s: %w", path, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != api.MediaTypeNDJSON {
		// The server answered with an enveloped error before streaming.
		defer resp.Body.Close()
		if aerr := errorEnvelope(resp); aerr != nil {
			return nil, retryable(aerr), aerr
		}
		return nil, resp.StatusCode >= 300, fmt.Errorf("client: POST %s: HTTP %d with content type %q", path, resp.StatusCode, ct)
	}
	return resp, false, nil
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
