package client

import (
	"context"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hpclog/internal/query"
)

// Watch is a live push subscription to GET /v1/watch: the server streams
// matching events as the ingest path commits them (no poll interval on
// either side). Iterate with Next until it returns false, then check
// Err; Close releases the connection early. Next must run on one
// goroutine at a time; Close may be called concurrently from another
// (it unblocks a parked Next, like closing an http response body).
type Watch struct {
	body   interface{ Close() error }
	lines  *lineReader[query.EventRecord]
	closed atomic.Bool
	mu     sync.Mutex
	err    error
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
	resp, _, err := c.openStream(ctx, http.MethodGet, "/v1/watch?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	return &Watch{body: resp.Body, lines: newLineReader[query.EventRecord](resp.Body)}, nil
}

// Next blocks until the next pushed event arrives. It returns false when
// the subscription ends — server timeout, shutdown, Close, or a failure
// (see Err).
func (w *Watch) Next() (query.EventRecord, bool) {
	if w.closed.Load() {
		return query.EventRecord{}, false
	}
	e, ok := w.lines.next()
	if !ok && !w.closed.Load() {
		w.mu.Lock()
		w.err = w.lines.err
		w.mu.Unlock()
	}
	return e, ok
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
