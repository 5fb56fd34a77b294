package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hpclog/client"
	"hpclog/internal/api"
	"hpclog/internal/store"
	"hpclog/internal/testutil"
)

// scanPeer points a remote replica with the given RPC timeout at a
// loopback peer served by h, and drains one shard scan through it.
func scanPeer(t *testing.T, timeout time.Duration, h http.HandlerFunc) ([]store.Row, error, time.Duration) {
	t.Helper()
	peer := httptest.NewServer(h)
	defer peer.Close()
	r := &remoteReplica{id: "n1", cli: client.New(peer.URL), timeout: timeout}
	started := time.Now()
	it, err := r.Scan(context.Background(), "events", "p", store.Range{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var rows []store.Row
	for row, ok := it.Next(); ok; row, ok = it.Next() {
		rows = append(rows, row)
	}
	return rows, it.Err(), time.Since(started)
}

// TestFaultScanPeerNeverAnswers: a peer that takes the shard scan request
// and never answers fails the scan once the RPC timeout has passed, not
// never.
func TestFaultScanPeerNeverAnswers(t *testing.T) {
	const timeout = 200 * time.Millisecond
	rows, err, took := scanPeer(t, timeout, func(w http.ResponseWriter, r *http.Request) {
		// Read the request, so the server notices the hang-up that ends it.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	if !errors.Is(err, context.DeadlineExceeded) || len(rows) != 0 {
		t.Fatalf("scan of a silent peer: %d rows, err = %v; want a deadline error", len(rows), err)
	}
	if took < timeout || took > timeout+testutil.Scaled(time.Second) {
		t.Fatalf("scan of a silent peer failed after %v, want about %v", took, timeout)
	}
}

// TestFaultScanSlowStreamOutlivesTimeout: a peer that answers at once and
// then streams slowly, each row inside the RPC timeout but the whole
// stream well past it, is read to its end — a flowing stream has no
// deadline.
func TestFaultScanSlowStreamOutlivesTimeout(t *testing.T) {
	const timeout = 300 * time.Millisecond
	const n = 8
	rows, err, took := scanPeer(t, timeout, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", api.MediaTypeNDJSON)
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		for i := 0; i < n; i++ {
			time.Sleep(timeout / 3)
			fmt.Fprintf(w, "{\"k\":\"%03d\",\"ts\":1}\n", i)
			w.(http.Flusher).Flush()
		}
		fmt.Fprintf(w, "{\"trailer\":true,\"rows\":%d}\n", n)
	})
	if err != nil || len(rows) != n {
		t.Fatalf("slow stream: %d rows, err = %v; want %d rows", len(rows), err, n)
	}
	if took < 2*timeout {
		t.Fatalf("stream took %v: it did not outlive the %v timeout", took, timeout)
	}
}

// TestFaultScanStallAfterFirstRow: a peer that answers, sends a row and
// then goes silent fails the scan about one RPC timeout after its last
// row, keeping the rows it did send.
func TestFaultScanStallAfterFirstRow(t *testing.T) {
	const timeout = 200 * time.Millisecond
	rows, err, took := scanPeer(t, timeout, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", api.MediaTypeNDJSON)
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "{\"k\":\"000\",\"ts\":1}\n")
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
		case <-time.After(10 * timeout): // bounds the test if the scan never gives up
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) || len(rows) != 1 {
		t.Fatalf("scan of a stalled peer: %d rows, err = %v; want 1 row and a deadline error", len(rows), err)
	}
	if took < timeout || took > timeout+testutil.Scaled(time.Second) {
		t.Fatalf("scan of a stalled peer failed after %v, want about %v", took, timeout)
	}
}

// TestFaultScanRetriedBeforeStream: a peer that turns the scan away as
// overloaded and then serves it answers the scan in full — a failure
// before the stream opens is retried like any call.
func TestFaultScanRetriedBeforeStream(t *testing.T) {
	var calls atomic.Int32
	rows, err, _ := scanPeer(t, time.Second, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if calls.Add(1) == 1 {
			aerr := api.Errorf(api.CodeOverloaded, "route cluster at its in-flight limit")
			body, _ := api.AppendResponse(nil, "", 0, nil, aerr)
			w.Header().Set("Content-Type", api.MediaTypeJSON)
			w.WriteHeader(aerr.Code.HTTPStatus())
			_, _ = w.Write(body)
			return
		}
		w.Header().Set("Content-Type", api.MediaTypeNDJSON)
		fmt.Fprintf(w, "{\"k\":\"000\",\"ts\":1}\n{\"trailer\":true,\"rows\":1}\n")
	})
	if err != nil || len(rows) != 1 || calls.Load() != 2 {
		t.Fatalf("scan after one overloaded answer: %d rows in %d calls, err = %v; want 1 row in 2 calls",
			len(rows), calls.Load(), err)
	}
}
