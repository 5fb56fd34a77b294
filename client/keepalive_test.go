package client

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"hpclog/internal/api"
	"hpclog/internal/query"
)

// cannedEvents serves one fixed events envelope of n rows, chunked (no
// Content-Length) like any response too large for net/http to size, and
// counts the TCP connections it is asked over.
func cannedEvents(t *testing.T, n int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	events := make([]query.EventRecord, n)
	for i := range events {
		events[i] = query.EventRecord{
			Time: 1501426800 + int64(i), Type: "MEM_ECC", Source: fmt.Sprintf("c0-0c1s%dn2", i%8), Count: 1,
			Raw:   fmt.Sprintf("EDAC MC0: %d CE memory read error on CPU_SrcID#0_Ha#0_Chan#1_DIMM#0", i),
			Attrs: map[string]string{"dimm": fmt.Sprint(i % 16), "page": fmt.Sprintf("0x%x", i*4096)},
		}
	}
	body, err := api.AppendResponse(nil, "canned", 1, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", api.MediaTypeJSON)
		w.(http.Flusher).Flush() // commits to chunked encoding
		_, _ = w.Write(body)
	}))
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &conns
}

// TestSequentialCallsReuseOneConnection: the SDK reads every response
// body to EOF, so the transport keeps the connection whatever the body's
// size. Stopping at the envelope's closing brace (what a json.Decoder on
// the body does) leaves a chunked response's terminator unread and costs
// a new TCP connection per call once a response outgrows a few kilobytes.
func TestSequentialCallsReuseOneConnection(t *testing.T) {
	for _, rows := range []int{1, 600} { // ~200 B and ~100 KB
		ts, conns := cannedEvents(t, rows)
		cli := New(ts.URL, WithRetries(0), WithHTTPClient(&http.Client{Transport: &http.Transport{}}))
		for i := 0; i < 20; i++ {
			events, err := cli.Events(context.Background(), query.Context{EventType: "MEM_ECC", From: 1, To: 2})
			if err != nil || len(events) != rows {
				t.Fatalf("%d rows, call %d: %d events, %v", rows, i, len(events), err)
			}
		}
		if n := conns.Load(); n != 1 {
			t.Errorf("20 sequential calls returning %d rows opened %d TCP connections, want 1", rows, n)
		}
	}
}

// TestPreStreamErrorKeepsConnection: a streaming endpoint that answers
// with an enveloped error instead of a stream is read to EOF too.
func TestPreStreamErrorKeepsConnection(t *testing.T) {
	pad := strings.Repeat("x", 64<<10)
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", api.MediaTypeJSON)
		w.WriteHeader(http.StatusBadRequest)
		w.(http.Flusher).Flush()
		fmt.Fprintf(w, `{"ok":false,"protocol":1,"error":{"code":"not_streamable","message":%q}}`+"\n", pad)
	}))
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	cli := New(ts.URL, WithRetries(0), WithHTTPClient(&http.Client{Transport: &http.Transport{}}))
	for i := 0; i < 10; i++ {
		err := cli.StreamEvents(context.Background(), query.Context{From: 1, To: 2}, func(query.EventRecord) error { return nil })
		if ae, ok := err.(*api.Error); !ok || ae.Code != api.CodeNotStreamable {
			t.Fatalf("stream error = %v, want not_streamable", err)
		}
		if _, err := cli.Watch(context.Background(), "MCE", WatchOptions{}); err == nil {
			t.Fatal("watch accepted an error envelope")
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("20 failed stream/watch calls opened %d TCP connections, want 1", n)
	}
}
