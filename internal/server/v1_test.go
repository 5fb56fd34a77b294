package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"hpclog/internal/api"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// newHardenedServer builds an empty-but-bootstrapped stack with explicit
// hardening config, for surface tests that need no corpus.
func newHardenedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	db := store.Open(store.Config{Nodes: 2, RF: 2, VNodes: 8})
	if err := ingest.Bootstrap(db, 4); err != nil {
		t.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	srv := NewWithConfig(query.New(db, eng), db, eng, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func decodeV1(t *testing.T, resp *http.Response) api.Response {
	t.Helper()
	defer resp.Body.Close()
	var env api.Response
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode v1 envelope: %v", err)
	}
	return env
}

func TestProtocolNegotiation(t *testing.T) {
	f := getFixture(t)
	for _, tc := range []struct {
		header string
		wantOK bool
	}{
		{"", true},
		{"1", true},
		{"99", false},
		{"banana", false},
	} {
		req, _ := http.NewRequest(http.MethodGet, f.ts.URL+"/v1/types", nil)
		if tc.header != "" {
			req.Header.Set(api.VersionHeader, tc.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		env := decodeV1(t, resp)
		if env.OK != tc.wantOK {
			t.Fatalf("header %q: ok=%v body=%+v", tc.header, env.OK, env.Err)
		}
		if !tc.wantOK {
			if env.Err == nil || env.Err.Code != api.CodeUnsupportedProtocol {
				t.Fatalf("header %q: error %+v, want unsupported_protocol", tc.header, env.Err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("header %q: status %d", tc.header, resp.StatusCode)
			}
		}
		if env.Protocol != api.Version {
			t.Fatalf("envelope protocol = %d", env.Protocol)
		}
	}
}

func TestRequestIDsAssignedAndEchoed(t *testing.T) {
	f := getFixture(t)
	// Assigned when absent.
	resp, err := http.Get(f.ts.URL + "/v1/types")
	if err != nil {
		t.Fatal(err)
	}
	env := decodeV1(t, resp)
	if env.RequestID == "" || resp.Header.Get(api.RequestIDHeader) != env.RequestID {
		t.Fatalf("request id missing or mismatched: %q vs header %q",
			env.RequestID, resp.Header.Get(api.RequestIDHeader))
	}
	// Echoed when supplied.
	req, _ := http.NewRequest(http.MethodGet, f.ts.URL+"/v1/types", nil)
	req.Header.Set(api.RequestIDHeader, "trace-me-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if env2 := decodeV1(t, resp2); env2.RequestID != "trace-me-42" {
		t.Fatalf("supplied request id not echoed: %q", env2.RequestID)
	}
}

func TestBodyCap(t *testing.T) {
	_, ts := newHardenedServer(t, Config{MaxBodyBytes: 256})
	big := bytes.Repeat([]byte("x"), 1024)
	body, _ := json.Marshal(map[string]string{"query": string(big)})
	resp, err := http.Post(ts.URL+"/v1/cql", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	env := decodeV1(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || env.OK {
		t.Fatalf("status %d, env %+v", resp.StatusCode, env)
	}
	if env.Err == nil || env.Err.Code != api.CodeTooLarge {
		t.Fatalf("error %+v, want too_large", env.Err)
	}
}

func TestWatchInFlightLimit(t *testing.T) {
	_, ts := newHardenedServer(t, Config{WatchInFlight: 1})
	// Park one watch subscriber.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/watch?type=MCE&timeout_ms=30000", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != api.MediaTypeNDJSON {
		t.Fatalf("first watch content type %q", ct)
	}
	// The second subscription must be refused with overloaded/429.
	resp2, err := http.Get(ts.URL + "/v1/watch?type=MCE&timeout_ms=1000")
	if err != nil {
		t.Fatal(err)
	}
	env := decodeV1(t, resp2)
	if resp2.StatusCode != http.StatusTooManyRequests || env.Err == nil || env.Err.Code != api.CodeOverloaded {
		t.Fatalf("status %d env %+v, want 429/overloaded", resp2.StatusCode, env.Err)
	}
	// The limiter state is surfaced in /v1/stats.
	resp3, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats api.StatsPayload
	env3 := decodeV1(t, resp3)
	if err := json.Unmarshal(env3.Result, &stats); err != nil {
		t.Fatal(err)
	}
	watch := stats.HTTP.Routes["watch"]
	if watch.Limit != 1 || watch.Rejected < 1 || watch.InFlight != 1 {
		t.Fatalf("watch route stats = %+v", watch)
	}
	if stats.HTTP.WatchSubscribers != 1 {
		t.Fatalf("watch subscribers = %d", stats.HTTP.WatchSubscribers)
	}
}

// TestWatchDeliversSkewedTimestamp: a committed event whose timestamp
// sits ahead of the server clock (writer skew) is beyond the
// clock-bounded scan window at wake time; the bounded skew re-check
// must still deliver it, not park until the next unrelated write.
func TestWatchDeliversSkewedTimestamp(t *testing.T) {
	f := getFixture(t)
	req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf(
		"%s/v1/watch?type=GPU_DBE&timeout_ms=8000&since=%d", f.ts.URL, time.Now().Unix()), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != api.MediaTypeNDJSON {
		t.Fatalf("watch content type %q", ct)
	}
	lines := make(chan string, 8)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	if err := ingest.NewLoader(f.db).LoadEvents([]model.Event{{
		Time: time.Now().UTC().Add(2 * time.Second), Type: model.EventType("GPU_DBE"),
		Source: "c0-0c0s5n5", Count: 1, Raw: "future-stamped",
	}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(7 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream ended before delivering the skewed event")
			}
			if strings.Contains(line, "future-stamped") {
				return
			}
		case <-deadline:
			t.Fatal("skewed event not delivered within the re-check horizon")
		}
	}
}

// TestWatchLinesEqualStreamLines: a /v1/watch data line is byte for byte
// the /v1/query/stream line of the same row, whichever path delivered it
// — the initial scan, the tail ring, or the scan a subscriber lagging
// past a one-row ring falls back to — with quotes, backslashes, HTML
// characters, U+2028 and invalid UTF-8 in the text and the source, and
// an attribute written empty.
func TestWatchLinesEqualStreamLines(t *testing.T) {
	for _, ring := range []int{0, 1} { // 0: the default ring
		t.Run(fmt.Sprintf("ring%d", ring), func(t *testing.T) {
			srv, ts := newHardenedServer(t, Config{WatchTailRing: ring})
			base := time.Now().UTC().Add(-time.Minute).Truncate(time.Second)
			n := 0
			load := func(k int) {
				t.Helper()
				events := make([]model.Event, k)
				for i := range events {
					n++
					events[i] = model.Event{
						Time: base.Add(time.Duration(n) * time.Second), Type: model.MCE, Count: n,
						Source: fmt.Sprintf("c0-0c0s%dn0 \"\\<>&\u2028\xff", n),
						Raw:    fmt.Sprintf("bank %d \"q\" \\ <b>&amp; \u2028\xfe\xff end", n),
						Attrs:  map[string]string{"bank": fmt.Sprint(n), "empty": "", "x<&>": "\u2029\"\\\x01"},
					}
				}
				if err := ingest.NewLoader(srv.db).LoadEvents(events); err != nil {
					t.Fatal(err)
				}
			}

			load(3) // history, for the initial scan
			resp, err := http.Get(fmt.Sprintf("%s/v1/watch?type=MCE&since=%d&timeout_ms=20000", ts.URL, base.Unix()))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			lines := make(chan string, 16)
			go func() {
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
					lines <- sc.Text()
				}
				close(lines)
			}()
			var got []string
			read := func(k int) {
				t.Helper()
				for ; k > 0; k-- {
					select {
					case line, ok := <-lines:
						if !ok || strings.HasPrefix(line, `{"trailer"`) {
							t.Fatalf("watch ended after %d lines: %q", len(got), line)
						}
						got = append(got, line)
					case <-time.After(10 * time.Second):
						t.Fatalf("watch delivered %d lines, want %d more", len(got), k)
					}
				}
			}
			read(3)

			// One-row digests fit any ring.
			hits, misses := srv.hub.tailHits.Load(), srv.hub.tailMisses.Load()
			for i := 0; i < 3; i++ {
				load(1)
				read(1)
			}
			if srv.hub.tailHits.Load() == hits || srv.hub.tailMisses.Load() != misses {
				t.Fatalf("ring deliveries: tail hits %d -> %d, misses %d -> %d", hits, srv.hub.tailHits.Load(), misses, srv.hub.tailMisses.Load())
			}
			if ring == 1 {
				// A three-row digest overflows the one-row ring.
				load(3)
				read(3)
				if srv.hub.tailMisses.Load() == misses {
					t.Fatal("a digest larger than the ring did not fall back to the scan")
				}
			}

			body, _ := json.Marshal(api.QueryRequest{Request: query.Request{Op: query.OpEvents,
				Context: query.Context{EventType: "MCE", From: base.Unix(), To: base.Add(time.Hour).Unix()}}})
			sresp, err := http.Post(ts.URL+"/v1/query/stream", api.MediaTypeJSON, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(sresp.Body)
			sresp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			want = want[:len(want)-1] // the trailer
			slices.Sort(got)
			slices.Sort(want)
			if len(got) != n || !slices.Equal(got, want) {
				t.Fatalf("watch lines differ from stream lines (%d events):\n got %q\nwant %q", n, got, want)
			}
		})
	}
}

func TestWatchTimeoutCapped(t *testing.T) {
	_, ts := newHardenedServer(t, Config{MaxWatchTimeout: 150 * time.Millisecond})
	start := time.Now()
	resp, err := http.Get(fmt.Sprintf("%s/v1/watch?type=MCE&since=%d&timeout_ms=60000",
		ts.URL, time.Now().Add(time.Hour).Unix()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body) // returns when the server ends the stream
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watch parked %v despite the 150ms cap", elapsed)
	}
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), `{"trailer":true,"rows":0}`) {
		t.Fatalf("capped watch: status %d, body %q", resp.StatusCode, body)
	}
}

// TestEnvelopeIsOneSizedWrite: writeV1 builds the whole response before
// sending it, so every envelope carries its Content-Length (none is
// chunked) and a row result's bytes are exactly what encoding/json made
// of the same rows before the wire codec existed.
func TestEnvelopeIsOneSizedWrite(t *testing.T) {
	f := getFixture(t)
	body, _ := json.Marshal(query.Request{
		Op: query.OpEvents,
		Context: query.Context{
			EventType: "MCE",
			From:      f.cfg.Start.Unix(),
			To:        f.cfg.Start.Add(f.cfg.Duration).Unix(),
		},
	})
	resp, err := http.Post(f.ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, transfer encoding %v, body %d bytes", resp.ContentLength, resp.TransferEncoding, len(raw))
	}
	var env api.Response
	if err := json.Unmarshal(raw, &env); err != nil || !env.OK {
		t.Fatalf("envelope: %v %+v", err, env)
	}
	var events []query.EventRecord
	if err := json.Unmarshal(env.Result, &events); err != nil || len(events) == 0 {
		t.Fatalf("result: %v, %d events", err, len(events))
	}
	env.Result, _ = json.Marshal(events)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(env); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Fatalf("response bytes differ from encoding/json's:\n got %.300s\nwant %.300s", raw, want.Bytes())
	}
}
