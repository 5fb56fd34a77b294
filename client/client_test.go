package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hpclog/internal/api"
	"hpclog/internal/compute"
	"hpclog/internal/cql"
	"hpclog/internal/ingest"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// openShared opens the store of the fixture the package's tests share,
// under a directory of its own that TestMain removes.
func openShared(t testing.TB, cfg store.Config) *store.DB {
	t.Helper()
	dir, err := os.MkdirTemp("", "hpclog-fixture-")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir, cfg.WALNoSync = dir, true
	db, err := store.OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestMain closes the shared fixture's store and removes its directory.
func TestMain(m *testing.M) {
	code := m.Run()
	if shared != nil {
		shared.db.Close()
		os.RemoveAll(shared.db.Config().Dir)
	}
	os.Exit(code)
}

type fixture struct {
	cfg logs.Config
	db  *store.DB
	ts  *httptest.Server
	cli *Client
}

var shared *fixture

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if shared != nil {
		return shared
	}
	cfg := logs.DefaultConfig()
	cfg.Nodes = topology.NodesPerCabinet
	cfg.Duration = time.Hour
	cfg.Storms = nil
	cfg.Jobs.MaxNodes = 16
	// A hotspot gives the pagination/stream tests a few hundred MCE
	// events to cut into pages.
	cfg.Hotspots = []logs.Hotspot{{Component: topology.CabinetAt(0, 0), Type: model.MCE, Multiplier: 50}}
	corpus := logs.Generate(cfg)
	db := openShared(t, store.Config{Nodes: 2, RF: 2, VNodes: 8, FlushThreshold: 1024})
	if err := ingest.Bootstrap(db, cfg.Nodes); err != nil {
		t.Fatal(err)
	}
	loader := ingest.NewLoader(db)
	if err := loader.LoadEvents(corpus.Events); err != nil {
		t.Fatal(err)
	}
	if err := loader.LoadRuns(corpus.Runs); err != nil {
		t.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	srv := server.NewWithConfig(query.New(db, eng), db, eng, server.Config{})
	ts := httptest.NewServer(srv)
	shared = &fixture{cfg: cfg, db: db, ts: ts, cli: New(ts.URL)}
	return shared
}

func window(cfg logs.Config) query.Context {
	return query.Context{From: cfg.Start.Unix(), To: cfg.Start.Add(cfg.Duration).Unix()}
}

func TestTypedQueries(t *testing.T) {
	f := getFixture(t)
	ctx := context.Background()

	types, err := f.cli.Types(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != len(model.EventTypes) {
		t.Fatalf("types = %d entries, want %d", len(types), len(model.EventTypes))
	}

	qc := window(f.cfg)
	qc.EventType = "MCE"
	events, err := f.cli.Events(ctx, qc)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events through the SDK")
	}
	for _, e := range events {
		if e.Type != "MCE" || e.Source == "" {
			t.Fatalf("bad record %+v", e)
		}
	}

	runs, err := f.cli.Runs(ctx, window(f.cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 {
		t.Fatal("no runs through the SDK")
	}

	stats, err := f.cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Tables) == 0 || stats.HTTP.Routes["query"].Total == 0 {
		t.Fatalf("stats missing tables or route counters: %+v", stats.HTTP)
	}

	info, err := f.cli.Protocol(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Protocol != api.Version || info.MinProtocol != api.MinVersion {
		t.Fatalf("protocol info = %+v", info)
	}
	if err := f.cli.Health(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestErrorPropagation is the regression test for the pre-SDK logctl bug:
// decodeEnvelope swallowed non-2xx statuses and ok:false envelopes
// without distinguishing them. The SDK must surface a typed *api.Error
// carrying the machine-readable code AND the HTTP status.
func TestErrorPropagation(t *testing.T) {
	f := getFixture(t)
	ctx := context.Background()

	// Server-side validation failure: typed code + 400.
	_, err := f.cli.Do(ctx, query.Request{Op: "bogus"})
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("unknown op error = %v (%T), want *api.Error", err, err)
	}
	if ae.Code != api.CodeUnknownOp || ae.Status != http.StatusBadRequest {
		t.Fatalf("unknown op error = code %q status %d, want unknown_op/400", ae.Code, ae.Status)
	}
	if ae.RequestID == "" {
		t.Fatal("error lost its request ID")
	}

	// Missing window: bad_request.
	_, err = f.cli.Events(ctx, query.Context{EventType: "MCE"})
	if !errors.As(err, &ae) || ae.Code != api.CodeBadRequest {
		t.Fatalf("missing window error = %v, want bad_request", err)
	}

	// The same empty window fails the same way however the events are
	// asked for: one code, one message, one-shot, streamed or paged.
	const wantMsg = `query: op "events" requires a non-empty [from, to) window`
	empty := query.Context{EventType: "MCE", From: f.cfg.Start.Unix(), To: f.cfg.Start.Unix()}
	_, oneShot := f.cli.Events(ctx, empty)
	streamed := f.cli.StreamEvents(ctx, empty, func(query.EventRecord) error { return nil })
	_, _, paged := f.cli.EventsPage(ctx, empty, 10, "")
	for label, err := range map[string]error{"one-shot": oneShot, "stream": streamed, "page": paged} {
		if !errors.As(err, &ae) || ae.Code != api.CodeBadRequest || ae.Message != wantMsg || ae.Status != http.StatusBadRequest {
			t.Fatalf("%s empty window error = %v, want bad_request/400 %q", label, err, wantMsg)
		}
	}

	// Transport failure (no server): NOT an *api.Error.
	dead := New("http://127.0.0.1:1", WithRetries(0))
	if _, err := dead.Types(ctx); err == nil || errors.As(err, &ae) {
		t.Fatalf("transport failure = %v, want non-API error", err)
	}
}

// TestErrorEnvelopeShapes drives the SDK against a scripted server to pin
// down decoding of hostile/degenerate envelopes.
func TestErrorEnvelopeShapes(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name    string
		handler http.HandlerFunc
		check   func(t *testing.T, err error)
	}{
		{
			name: "non-2xx with envelope",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", api.MediaTypeJSON)
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"ok":false,"protocol":1,"error":{"code":"unavailable","message":"replica down"}}`)
			},
			check: func(t *testing.T, err error) {
				var ae *api.Error
				if !errors.As(err, &ae) || ae.Code != api.CodeUnavailable || ae.Status != http.StatusServiceUnavailable {
					t.Fatalf("got %v, want unavailable/503", err)
				}
			},
		},
		{
			name: "ok false with no error object",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusBadGateway)
				fmt.Fprint(w, `{"ok":false,"protocol":1}`)
			},
			check: func(t *testing.T, err error) {
				var ae *api.Error
				if !errors.As(err, &ae) || ae.Code != api.CodeInternal || ae.Status != http.StatusBadGateway {
					t.Fatalf("got %v, want synthesized internal/502", err)
				}
			},
		},
		{
			name: "undecodable body",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusOK)
				fmt.Fprint(w, "not json at all")
			},
			check: func(t *testing.T, err error) {
				var ae *api.Error
				if err == nil || errors.As(err, &ae) {
					t.Fatalf("got %v, want transport-level decode error", err)
				}
			},
		},
		{
			name: "future protocol",
			handler: func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprint(w, `{"ok":true,"protocol":99,"result":{}}`)
			},
			check: func(t *testing.T, err error) {
				if err == nil {
					t.Fatal("future protocol accepted")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.handler)
			defer ts.Close()
			_, err := New(ts.URL, WithRetries(0)).Types(ctx)
			tc.check(t, err)
		})
	}
}

func TestRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"ok":false,"protocol":1,"error":{"code":"overloaded","message":"busy"}}`)
			return
		}
		fmt.Fprint(w, `{"ok":true,"protocol":1,"result":{"MCE":"machine check"}}`)
	}))
	defer ts.Close()
	cli := New(ts.URL, WithRetries(3), WithBackoff(time.Millisecond))
	types, err := cli.Types(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 || types["MCE"] == "" {
		t.Fatalf("calls=%d types=%v", calls.Load(), types)
	}

	// bad_request must NOT be retried.
	calls.Store(0)
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"ok":false,"protocol":1,"error":{"code":"bad_request","message":"nope"}}`)
	}))
	defer ts2.Close()
	if _, err := New(ts2.URL, WithRetries(3), WithBackoff(time.Millisecond)).Types(context.Background()); err == nil {
		t.Fatal("expected error")
	}
	if calls.Load() != 1 {
		t.Fatalf("bad_request retried %d times", calls.Load()-1)
	}
}

func TestContextCancellation(t *testing.T) {
	blocked := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-blocked
	}))
	defer ts.Close()
	defer close(blocked)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := New(ts.URL).Types(ctx)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not interrupt the call")
	}
}

func TestPaginationConcatenatesToOneShot(t *testing.T) {
	f := getFixture(t)
	ctx := context.Background()
	qc := window(f.cfg)
	qc.EventType = "MCE"
	oneShot, err := f.cli.Events(ctx, qc)
	if err != nil {
		t.Fatal(err)
	}
	if len(oneShot) < 10 {
		t.Fatalf("corpus too small: %d MCE events", len(oneShot))
	}
	for _, pageSize := range []int{1, 7, 64, len(oneShot) + 1} {
		var paged []query.EventRecord
		cursor := ""
		pages := 0
		for {
			items, next, err := f.cli.EventsPage(ctx, qc, pageSize, cursor)
			if err != nil {
				t.Fatal(err)
			}
			if len(items) > pageSize {
				t.Fatalf("page of %d items exceeds limit %d", len(items), pageSize)
			}
			paged = append(paged, items...)
			pages++
			if next == "" {
				break
			}
			cursor = next
		}
		assertSameEvents(t, oneShot, paged, fmt.Sprintf("pageSize=%d (%d pages)", pageSize, pages))
	}
}

// TestRunsPaginationConcatenatesToOneShot pages the window's runs in
// pages smaller than the run set: the pages concatenate to the one-shot
// Runs result.
func TestRunsPaginationConcatenatesToOneShot(t *testing.T) {
	f := getFixture(t)
	ctx := context.Background()
	qc := window(f.cfg)
	oneShot, err := f.cli.Runs(ctx, qc)
	if err != nil {
		t.Fatal(err)
	}
	if len(oneShot) < 3 {
		t.Fatalf("corpus too small: %d runs", len(oneShot))
	}
	for _, pageSize := range []int{1, 2, len(oneShot) - 1} {
		var paged []query.RunRecord
		cursor := ""
		pages := 0
		for {
			items, next, err := f.cli.RunsPage(ctx, qc, pageSize, cursor)
			if err != nil {
				t.Fatal(err)
			}
			if len(items) > pageSize {
				t.Fatalf("page of %d runs exceeds limit %d", len(items), pageSize)
			}
			paged = append(paged, items...)
			pages++
			if next == "" {
				break
			}
			cursor = next
		}
		if pages < 2 || !reflect.DeepEqual(paged, oneShot) {
			t.Fatalf("pageSize=%d: %d pages of %d runs differ from the %d one-shot runs", pageSize, pages, len(paged), len(oneShot))
		}
	}
}

// TestStorageStatsAndCompact drives /v1/storage and /v1/storage/compact
// on a store of its own: StorageStats reports the store's segment and
// byte counts, and Compact leaves one segment per partition.
func TestStorageStatsAndCompact(t *testing.T) {
	db := openShared(t, store.Config{Nodes: 2, RF: 2, VNodes: 8, CompactInterval: -1})
	defer os.RemoveAll(db.Config().Dir)
	defer db.Close()
	cfg := logs.DefaultConfig()
	cfg.Nodes = topology.NodesPerCabinet
	cfg.Duration = time.Hour
	if err := ingest.Bootstrap(db, cfg.Nodes); err != nil {
		t.Fatal(err)
	}
	// Three loads, each flushed, give a partition up to three segments.
	events := logs.Generate(cfg).Events
	for i := range 3 {
		if err := ingest.NewLoader(db).LoadEvents(events[i*len(events)/3 : (i+1)*len(events)/3]); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	ts := httptest.NewServer(server.NewWithConfig(query.New(db, eng), db, eng, server.Config{}))
	defer ts.Close()
	cli := New(ts.URL)
	ctx := context.Background()

	partitions := 0
	for _, id := range db.NodeIDs() {
		for _, table := range db.Tables() {
			keys, err := db.Node(id).PartitionKeys(ctx, table)
			if err != nil {
				t.Fatal(err)
			}
			partitions += len(keys)
		}
	}
	disk := func(st store.StorageStats) [3]int64 { return [3]int64{st.DiskSegments, st.DiskFiles, st.DiskBytes} }
	st, err := cli.StorageStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := db.StorageStats(); disk(st) != disk(want) || st.Flushes != want.Flushes {
		t.Fatalf("StorageStats = %+v, want the store's %+v", st, want)
	}
	if st.DiskSegments <= int64(partitions) || st.DiskBytes == 0 {
		t.Fatalf("before compaction %d segments of %d bytes for %d partitions, want several segments a partition",
			st.DiskSegments, st.DiskBytes, partitions)
	}

	res, err := cli.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionsCompacted == 0 || res.Storage.DiskSegments != int64(partitions) || res.Storage.DiskBytes == 0 {
		t.Fatalf("Compact = %d partitions compacted, %d segments of %d bytes, want one segment for each of %d partitions",
			res.PartitionsCompacted, res.Storage.DiskSegments, res.Storage.DiskBytes, partitions)
	}
	if st, err = cli.StorageStats(ctx); err != nil || disk(st) != disk(res.Storage) {
		t.Fatalf("StorageStats after Compact = %+v, %v, want %+v", st, err, res.Storage)
	}
}

func TestStreamConcatenatesToOneShot(t *testing.T) {
	f := getFixture(t)
	ctx := context.Background()
	qc := window(f.cfg)
	qc.EventType = "LUSTRE"
	oneShot, err := f.cli.Events(ctx, qc)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []query.EventRecord
	if err := f.cli.StreamEvents(ctx, qc, func(e query.EventRecord) error {
		streamed = append(streamed, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	assertSameEvents(t, oneShot, streamed, "stream")

	oneShotRuns, err := f.cli.Runs(ctx, window(f.cfg))
	if err != nil {
		t.Fatal(err)
	}
	var streamedRuns []query.RunRecord
	if err := f.cli.StreamRuns(ctx, window(f.cfg), func(r query.RunRecord) error {
		streamedRuns = append(streamedRuns, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamedRuns) != len(oneShotRuns) {
		t.Fatalf("streamed %d runs, one-shot %d", len(streamedRuns), len(oneShotRuns))
	}
	for i := range streamedRuns {
		if fmt.Sprint(streamedRuns[i]) != fmt.Sprint(oneShotRuns[i]) {
			t.Fatalf("run %d differs: %+v vs %+v", i, streamedRuns[i], oneShotRuns[i])
		}
	}
}

func assertSameEvents(t *testing.T, want, got []query.EventRecord, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, one-shot has %d", label, len(got), len(want))
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("%s: event %d differs:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

func TestCQLSessionOverWire(t *testing.T) {
	f := getFixture(t)
	ctx := context.Background()
	sess := f.cli.Session("ONE")
	hour := f.cfg.Start.Unix() / 3600
	stmt := fmt.Sprintf("SELECT * FROM event_by_time WHERE partition = '%d:MCE'", hour)

	full, err := sess.Execute(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) == 0 {
		t.Fatal("no CQL rows")
	}

	// Paged concatenation equals the one-shot rows.
	var paged []string
	if err := sess.Each(ctx, stmt, 3, func(r cql.ResultRow) error {
		paged = append(paged, r.Key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(paged) != len(full.Rows) {
		t.Fatalf("paged %d rows, one-shot %d", len(paged), len(full.Rows))
	}
	for i, key := range paged {
		if key != full.Rows[i].Key {
			t.Fatalf("row %d key %q, want %q", i, key, full.Rows[i].Key)
		}
	}

	// Streamed rows equal the one-shot rows.
	i := 0
	if err := sess.Stream(ctx, stmt, func(r cql.ResultRow) error {
		if i >= len(full.Rows) || r.Key != full.Rows[i].Key {
			return fmt.Errorf("stream row %d key %q out of order", i, r.Key)
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(full.Rows) {
		t.Fatalf("streamed %d rows, want %d", i, len(full.Rows))
	}

	// Aggregates refuse pagination/streaming with a typed code.
	agg := fmt.Sprintf("SELECT COUNT(*) FROM event_by_time WHERE partition = '%d:MCE'", hour)
	var ae *api.Error
	if _, _, err := sess.Page(ctx, agg, 10, ""); !errors.As(err, &ae) || ae.Code != api.CodeBadRequest {
		t.Fatalf("aggregate page error = %v", err)
	}
	if err := sess.Stream(ctx, agg, func(cql.ResultRow) error { return nil }); !errors.As(err, &ae) || ae.Code != api.CodeNotStreamable {
		t.Fatalf("aggregate stream error = %v", err)
	}
}

func TestWatchDeliversPush(t *testing.T) {
	f := getFixture(t)
	ctx := context.Background()
	w, err := f.cli.Watch(ctx, "GPU_FAIL", WatchOptions{
		Since:   time.Now().Add(-time.Second),
		Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	got := make(chan query.EventRecord, 1)
	go func() {
		if e, ok := w.Next(); ok {
			got <- e
		}
		close(got)
	}()
	e := model.Event{
		Time: time.Now().UTC(), Type: model.GPUFail,
		Source: "c0-0c0s1n2", Count: 1, Raw: "sdk watch probe",
	}
	if err := ingest.NewLoader(f.db).LoadEvents([]model.Event{e}); err != nil {
		t.Fatal(err)
	}
	select {
	case rec, ok := <-got:
		if !ok {
			t.Fatalf("watch ended early: %v", w.Err())
		}
		if rec.Type != "GPU_FAIL" || rec.Raw != "sdk watch probe" {
			t.Fatalf("wrong event %+v", rec)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch never delivered the event")
	}
}

func TestBadCursorIsTyped(t *testing.T) {
	f := getFixture(t)
	qc := window(f.cfg)
	qc.EventType = "MCE"
	_, _, err := f.cli.EventsPage(context.Background(), qc, 10, "garbage-cursor")
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeBadCursor {
		t.Fatalf("bad cursor error = %v, want bad_cursor", err)
	}
}
