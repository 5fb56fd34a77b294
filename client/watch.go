package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hpclog/internal/api"
	"hpclog/internal/query"
)

// Watch is a live push subscription to GET /v1/watch: the server streams
// matching events as the ingest path commits them (no poll interval on
// either side). Iterate with Next until it returns false, then check
// Err; Close releases the connection early. Next must run on one
// goroutine at a time; Close may be called concurrently from another
// (it unblocks a parked Next, like closing an http response body).
type Watch struct {
	body interface{ Close() error }
	sc   *bufio.Scanner
	// dec and event are Next's, reused from line to line.
	dec     api.Decoder
	event   query.EventRecord
	closed  atomic.Bool
	mu      sync.Mutex
	err     error
	trailer *api.StreamTrailer
}

func (w *Watch) setErr(err error) {
	w.mu.Lock()
	w.err = err
	w.mu.Unlock()
}

// WatchOptions tunes a subscription.
type WatchOptions struct {
	// Since delivers historical events with timestamp >= Since before
	// switching to live pushes; the zero value starts from now.
	Since time.Time
	// Timeout asks the server to end the stream after this long (the
	// server caps it); <= 0 accepts the server maximum.
	Timeout time.Duration
}

// Watch subscribes to events of one type. The call returns once the
// subscription is established (the server commits the stream before
// parking), so an event written after Watch returns is guaranteed to be
// delivered.
func (c *Client) Watch(ctx context.Context, eventType string, opts WatchOptions) (*Watch, error) {
	q := url.Values{"type": {eventType}}
	if !opts.Since.IsZero() {
		q.Set("since", strconv.FormatInt(opts.Since.Unix(), 10))
	}
	if opts.Timeout > 0 {
		q.Set("timeout_ms", strconv.FormatInt(opts.Timeout.Milliseconds(), 10))
	}
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/watch?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: watch: %w", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != api.MediaTypeNDJSON {
		defer resp.Body.Close()
		if aerr := errorEnvelope(resp); aerr != nil {
			return nil, aerr
		}
		return nil, fmt.Errorf("client: watch: HTTP %d with content type %q", resp.StatusCode, ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	return &Watch{body: resp.Body, sc: sc}, nil
}

// Next blocks until the next pushed event arrives. It returns false when
// the subscription ends — server timeout, shutdown, Close, or a failure
// (see Err).
func (w *Watch) Next() (query.EventRecord, bool) {
	var zero query.EventRecord
	if w.closed.Load() || w.Err() != nil || w.trailer != nil {
		return zero, false
	}
	for w.sc.Scan() {
		line := w.sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if bytes.HasPrefix(line, trailerPrefix) {
			var tr api.StreamTrailer
			if err := json.Unmarshal(line, &tr); err != nil {
				w.setErr(fmt.Errorf("client: bad watch trailer: %w", err))
				return zero, false
			}
			w.trailer = &tr
			if tr.Err != nil {
				w.setErr(tr.Err)
			}
			return zero, false
		}
		w.event = zero
		if err := w.dec.Unmarshal(line, &w.event); err != nil {
			w.setErr(fmt.Errorf("client: bad watch line: %w", err))
			return zero, false
		}
		return w.event, true
	}
	if err := w.sc.Err(); err != nil && !w.closed.Load() {
		w.setErr(fmt.Errorf("client: watch read: %w", err))
	} else if w.trailer == nil && !w.closed.Load() {
		w.setErr(fmt.Errorf("client: watch truncated (no trailer)"))
	}
	return zero, false
}

// Err reports why the subscription ended; nil after a clean server-side
// end (timeout/shutdown trailer) or a local Close.
func (w *Watch) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close tears the subscription down, unblocking a parked Next.
func (w *Watch) Close() error {
	w.closed.Store(true)
	return w.body.Close()
}
